/// \file pipeline.hpp
/// \brief The staged BIST pipeline: a `bist_session` materialises the
///        paper's flow as typed stages that can be run individually,
///        resumed, or shared across sessions whose upstream configuration
///        is provably identical.
///
/// Dataflow (see stages.hpp for the per-stage artefacts):
///
///   stimulus ──▶ tx_capture ──▶ calibration ──▶ reconstruction ──▶ grading
///
/// Every stage's *input digest* is a content hash of the configuration
/// fields the stage (and everything upstream of it) consumes, in the
/// canonical form of config_canonical.hpp.  Equal digests guarantee
/// bit-identical stage outputs, which is what lets `campaign_runner` pool
/// upstream stage results across scenarios that only differ downstream
/// (e.g. Monte-Carlo probe draws reuse stimulus generation and the Tx
/// captures; fault grids reuse stimulus generation across faults).
///
/// A session is the one home for stage outputs: callers read them through
/// the typed accessors.  `bist_engine::run()` is a thin wrapper that runs a
/// session for its report.  Report and stage outputs stay bit-identical to
/// the pre-pipeline monolith (locked down by tests/bist/pipeline_test.cpp
/// against a retained monolithic reference).
#pragma once

#include <cstdint>
#include <memory>

#include "bist/engine.hpp"
#include "bist/stages.hpp"

namespace sdrbist::bist {

// ---------------------------------------------------------------------------
// Stage runners: pure functions of the configuration and upstream outputs.
// Exposed so tests and tools can drive stages directly; most callers use
// bist_session.
// ---------------------------------------------------------------------------

[[nodiscard]] stimulus_output run_stimulus(const bist_config& config);
[[nodiscard]] tx_capture_output run_tx_capture(const bist_config& config,
                                               const stimulus_output& stim);
[[nodiscard]] calibration_output
run_calibration(const bist_config& config, const tx_capture_output& cap);
[[nodiscard]] reconstruction_output
run_reconstruction(const bist_config& config, const stimulus_output& stim,
                   const tx_capture_output& cap,
                   const calibration_output& cal);
[[nodiscard]] grading_output run_grading(const bist_config& config,
                                         const stimulus_output& stim,
                                         const reconstruction_output& recon);

// ---------------------------------------------------------------------------
// Snapshot store interface
// ---------------------------------------------------------------------------

/// Abstract persistent store of stage output snapshots, keyed by the
/// stage *input digest* (config_canonical.hpp).  Equal digests guarantee
/// bit-identical stage outputs, so a loaded snapshot can stand in for the
/// compute under the campaign byte-identity contract.
///
/// Contracts:
///  * `load_*` returns null on miss — including version skew and corrupt
///    entries (implementations quarantine those); a hit is a decoded
///    snapshot element-exactly equal to what the compute would produce.
///  * `store_*` is best-effort: failures degrade to "not persisted",
///    exactly the contract a real I/O failure gets.
///  * Implementations must be safe to call from concurrent sessions.
///
/// Implemented by `campaign::stage_artefact_store` (compressed on-disk
/// entries); the interface lives here so `bist_session` can adopt from /
/// publish to a store without the bist layer depending on campaign code.
class stage_snapshot_store {
public:
    virtual ~stage_snapshot_store() = default;

    [[nodiscard]] virtual std::shared_ptr<const stimulus_output>
    load_stimulus(std::uint64_t digest) = 0;
    [[nodiscard]] virtual std::shared_ptr<const tx_capture_output>
    load_tx_capture(std::uint64_t digest) = 0;
    [[nodiscard]] virtual std::shared_ptr<const calibration_output>
    load_calibration(std::uint64_t digest) = 0;
    [[nodiscard]] virtual std::shared_ptr<const reconstruction_output>
    load_reconstruction(std::uint64_t digest) = 0;
    [[nodiscard]] virtual std::shared_ptr<const grading_output>
    load_grading(std::uint64_t digest) = 0;

    virtual void store_stimulus(std::uint64_t digest,
                                const stimulus_output& out) = 0;
    virtual void store_tx_capture(std::uint64_t digest,
                                  const tx_capture_output& out) = 0;
    virtual void store_calibration(std::uint64_t digest,
                                   const calibration_output& out) = 0;
    virtual void store_reconstruction(std::uint64_t digest,
                                      const reconstruction_output& out) = 0;
    virtual void store_grading(std::uint64_t digest,
                               const grading_output& out) = 0;
};

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// One BIST execution, stage by stage.
///
/// Stages run lazily and in order: `run_until(stage::calibration)` runs
/// stimulus, tx_capture and calibration (skipping any already complete),
/// and a later `run_until(stage::grading)` resumes from there.  The flow
/// never halts: the stimulus stage only plans bands that satisfy the
/// eq. (9) identifiability conditions (`calib::choose_band_plan` ensures
/// them), so the tx_capture check that reports them always passes, and
/// calibration rejects a capture that fails it as a contract violation.
///
/// Stage outputs are held as shared immutable snapshots, so sessions with
/// provably equal upstream configuration (equal `input_digest`) can adopt
/// each other's outputs instead of recomputing them.
class bist_session {
public:
    explicit bist_session(bist_config config);

    [[nodiscard]] const bist_config& config() const { return config_; }

    /// Run stages in order until `target` is complete; returns true.
    /// With a store, first adopt what it holds for the stages not yet
    /// complete, in dataflow order up to `target`, stopping at the first
    /// miss; then compute the rest and publish exactly the stages this
    /// call computed (adopted ones are someone else's publication).  A
    /// store changes where a snapshot comes from, never what it is.
    bool run_until(stage target, stage_snapshot_store* store = nullptr);

    /// Run the full flow (to grading).
    void run() { run_until(stage::grading); }

    [[nodiscard]] bool completed(stage s) const;

    /// Typed stage accessors.  Precondition: completed(stage).
    [[nodiscard]] const stimulus_output& stimulus() const;
    [[nodiscard]] const tx_capture_output& tx_capture() const;
    [[nodiscard]] const calibration_output& calibration() const;
    [[nodiscard]] const reconstruction_output& reconstruction() const;
    [[nodiscard]] const grading_output& grading() const;

    /// Content hash of everything that determines stage `s`'s output: the
    /// canonical stage slices of `s` and every stage upstream of it.
    /// Pure function of the configuration (see config_canonical.hpp).
    [[nodiscard]] std::uint64_t input_digest(stage s) const;

    /// Share `donor`'s snapshots of every stage up to `through` (which the
    /// donor must have completed) and drop this session's outputs
    /// downstream of it.  The caller guarantees `donor.input_digest(through)
    /// == input_digest(through)`: equal digests mean bit-identical outputs.
    void adopt_from(const bist_session& donor, stage through);

    /// Persist stage `s`'s completed output to the store, keyed by this
    /// session's input digest for `s`.  Precondition: completed(s).
    /// Best-effort (see stage_snapshot_store::store_*).
    void publish_to_store(stage_snapshot_store& store, stage s) const;

    /// Assemble the report from the completed stages (fields of stages that
    /// have not run keep their defaults — the monolithic early-return
    /// behaviour).
    [[nodiscard]] bist_report report() const;

private:
    /// Drop `s` and everything downstream.
    void drop_from(stage s);
    /// Adopt stage `s` from the store under its input digest; false on a
    /// miss.
    bool load(stage_snapshot_store& store, stage s, std::uint64_t digest);
    /// publish_to_store with the input digest already computed.
    void publish(stage_snapshot_store& store, stage s,
                 std::uint64_t digest) const;
    /// Compute stage `s` from the completed upstream stages.
    void compute(stage s);

    bist_config config_;
    std::shared_ptr<const stimulus_output> stimulus_;
    std::shared_ptr<const tx_capture_output> tx_capture_;
    std::shared_ptr<const calibration_output> calibration_;
    std::shared_ptr<const reconstruction_output> reconstruction_;
    std::shared_ptr<const grading_output> grading_;
};

} // namespace sdrbist::bist
