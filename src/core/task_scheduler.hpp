/// \file task_scheduler.hpp
/// \brief Task-graph executor with per-worker deques and work stealing.
///
/// The campaign subsystem plans a scenario grid as a dependency DAG: pooled
/// stage owners (one node per distinct stage digest) run topologically
/// first, and co-consumer scenarios *adopt* the completed snapshot instead
/// of blocking on a `shared_future` — the adoption wait that limited the
/// retired fixed-queue `thread_pool` to ~1× scaling on pooled grids.
///
/// Execution model:
///  * `task_graph` collects nullary tasks plus their dependency edges.  A
///    task may only depend on tasks that already exist, so every graph is
///    acyclic by construction.
///  * `task_scheduler::run()` seeds dependency-free nodes round-robin over
///    per-worker deques.  A worker drains its own deque FIFO — a single
///    worker therefore runs tasks in submission order, keeping 1-thread
///    arrival order exact (fault-injection triggers rely on it) — and
///    steals from the other end of a victim's deque, away from the
///    owner's next pop.
///  * Completing a node decrements each successor's pending-dependency
///    count; the worker that performs the last decrement pushes the
///    successor onto its own deque ("spawn") and wakes one sleeper.
///
/// Contracts (shared with the retired pool, relied on by campaign/):
///  * Every node runs exactly once, even when other nodes throw — failures
///    never cancel successors, so caller-owned result slots stay
///    well-defined.  After the graph drains, the exception of the
///    lowest-id failed node is rethrown.
///  * Tasks are pure functions of their inputs writing disjoint slots, so
///    scheduling order never affects results: any thread count (including
///    1) produces bit-identical outputs by construction.
///
/// Telemetry: task/idle spans (`sched.task`/`sched.idle`), `sched.tasks`
/// and `sched.queue_high_water` counters, plus `sched.spawns`
/// (dependency-released nodes — deterministic: nodes minus roots) and
/// `sched.steals` (nondeterministic; always 0 single-threaded).
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "core/contracts.hpp"

namespace sdrbist {

/// Dependency DAG of nullary tasks, acyclic by construction: a node may
/// only name already-added nodes as dependencies.
class task_graph {
public:
    /// Add a dependency-free task (a root). Returns its node id.
    std::size_t add(std::function<void()> fn) { return add(std::move(fn), {}); }

    /// Add a task that runs only after every id in `dependencies`.
    std::size_t add(std::function<void()> fn,
                    const std::vector<std::size_t>& dependencies) {
        SDRBIST_EXPECTS(static_cast<bool>(fn));
        const std::size_t id = nodes_.size();
        for (const std::size_t dep : dependencies) {
            SDRBIST_EXPECTS(dep < id);
            nodes_[dep].successors.push_back(id);
        }
        nodes_.push_back(node{std::move(fn), {}, dependencies.size()});
        return id;
    }

    [[nodiscard]] std::size_t size() const { return nodes_.size(); }

private:
    friend class task_scheduler;

    struct node {
        std::function<void()> fn;
        std::vector<std::size_t> successors;
        std::size_t dependency_count = 0;
    };
    std::vector<node> nodes_;
};

/// Work-stealing executor for `task_graph`s.  Stateless between runs:
/// `run()` spawns its workers, drains the graph, joins them, and returns.
class task_scheduler {
public:
    /// Per-run statistics (also mirrored into telemetry counters).
    struct run_stats {
        std::size_t executed = 0; ///< nodes run (always graph.size())
        std::size_t spawned = 0;  ///< nodes released by a completed
                                  ///< dependency (deterministic)
        std::size_t stolen = 0;   ///< tasks taken from another worker's
                                  ///< deque (nondeterministic; 0 at 1
                                  ///< thread)
    };

    /// \param threads  worker count; 0 selects default_thread_count().
    explicit task_scheduler(std::size_t threads = 0)
        : threads_(threads == 0 ? default_thread_count() : threads) {}

    /// Number of worker threads a run will spawn (capped by graph size).
    [[nodiscard]] std::size_t size() const { return threads_; }

    /// Hardware concurrency with a floor of one.
    [[nodiscard]] static std::size_t default_thread_count() {
        return default_thread_count_impl();
    }

    /// Drain `graph`: every node runs exactly once, dependencies first.
    /// Blocks until complete; rethrows the lowest-id node's exception, if
    /// any, after the whole graph has run.
    run_stats run(task_graph graph) const;

    /// Run body(0) ... body(n-1) as a flat dependency-free graph and block
    /// until all complete.  Rethrows the exception of the lowest-index
    /// failed iteration (every iteration still runs to completion first).
    template <typename Body>
    run_stats parallel_for(std::size_t n, Body&& body) const {
        task_graph graph;
        for (std::size_t i = 0; i < n; ++i)
            graph.add([&body, i] { body(i); });
        return run(std::move(graph));
    }

private:
    static std::size_t default_thread_count_impl();

    std::size_t threads_;
};

} // namespace sdrbist
