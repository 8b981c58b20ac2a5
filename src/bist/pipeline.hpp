/// \file pipeline.hpp
/// \brief The staged BIST pipeline: a `bist_session` materialises the
///        paper's flow as typed stages that can be run individually,
///        resumed, re-run with a modified downstream configuration, or
///        shared across sessions whose upstream configuration is provably
///        identical.
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
/// and a later `run_until(stage::grading)` resumes from there.  When the
/// tx_capture stage finds the eq. (9) identifiability conditions violated
/// the session *halts*: downstream stages never run and the report carries
/// the diagnostics gathered so far — exactly the monolithic engine's early
/// return.
///
/// Stage outputs are held as shared immutable snapshots, so sessions with
/// provably equal upstream configuration (equal `input_digest`) can adopt
/// each other's outputs instead of recomputing them.
class bist_session {
public:
    explicit bist_session(bist_config config);

    [[nodiscard]] const bist_config& config() const { return config_; }

    /// Re-target the session onto a modified configuration.  Stages whose
    /// input digest is unchanged keep their outputs; the first stage whose
    /// digest moved — and everything downstream of it — is dropped and will
    /// be recomputed on the next run.  Changing only downstream knobs
    /// (e.g. the spectral mask or EVM limit) therefore re-runs only the
    /// downstream stages.
    void reconfigure(bist_config config);

    /// Run stages in order until `target` is complete.  Returns true when
    /// `target` completed; false when the session halted upstream of it.
    bool run_until(stage target);

    /// Run the full flow (to grading, or to the halt point).
    void run() { run_until(stage::grading); }

    [[nodiscard]] bool completed(stage s) const;

    /// True when tx_capture found the dual-rate identifiability conditions
    /// violated: the flow cannot proceed past stage::tx_capture.
    [[nodiscard]] bool halted() const {
        return tx_capture_ && !tx_capture_->dual_rate_conditions_ok;
    }

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

    /// Shared immutable snapshots for cross-session reuse (null until the
    /// stage completes).
    [[nodiscard]] std::shared_ptr<const stimulus_output>
    share_stimulus() const {
        return stimulus_;
    }
    [[nodiscard]] std::shared_ptr<const tx_capture_output>
    share_tx_capture() const {
        return tx_capture_;
    }
    [[nodiscard]] std::shared_ptr<const calibration_output>
    share_calibration() const {
        return calibration_;
    }
    [[nodiscard]] std::shared_ptr<const reconstruction_output>
    share_reconstruction() const {
        return reconstruction_;
    }
    [[nodiscard]] std::shared_ptr<const grading_output>
    share_grading() const {
        return grading_;
    }

    /// Adopt a stage output computed elsewhere.  The caller must guarantee
    /// the donor session's `input_digest` for this stage equals this
    /// session's (equal digests mean bit-identical outputs); each adopt
    /// requires every upstream stage to be present already and drops any
    /// previously-computed downstream outputs.
    void adopt_stimulus(std::shared_ptr<const stimulus_output> out);
    void adopt_tx_capture(std::shared_ptr<const tx_capture_output> out);
    void adopt_calibration(std::shared_ptr<const calibration_output> out);
    void adopt_reconstruction(std::shared_ptr<const reconstruction_output> out);
    void adopt_grading(std::shared_ptr<const grading_output> out);

    /// Adopt completed stage outputs from a persistent snapshot store:
    /// walks the stages in dataflow order, skipping ones already complete,
    /// adopting each store hit and stopping at the first miss (adoption
    /// requires every upstream stage to be present).  Stops early when an
    /// adopted tx_capture halts the session — nothing downstream of a halt
    /// is ever stored or adopted.  Returns the number of stages adopted.
    std::size_t adopt_from_store(stage_snapshot_store& store);

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

    bist_config config_;
    std::shared_ptr<const stimulus_output> stimulus_;
    std::shared_ptr<const tx_capture_output> tx_capture_;
    std::shared_ptr<const calibration_output> calibration_;
    std::shared_ptr<const reconstruction_output> reconstruction_;
    std::shared_ptr<const grading_output> grading_;
};

} // namespace sdrbist::bist
