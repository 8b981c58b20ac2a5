/// \file task_scheduler.cpp
/// \brief Work-stealing DAG executor implementation.
///
/// Synchronisation layout (TSan-clean by design — every shared structure
/// is mutex-protected; atomics carry only counters and the dependency
/// arithmetic):
///  * one mutex per worker deque (owner pops back, thieves pop front);
///  * `pending[n]` dependency counters, decremented with acq_rel so a
///    successor's task observes everything its dependencies wrote;
///  * a sleep mutex + condition variable with a generation counter
///    (`signal`): a worker snapshots the generation *before* scanning for
///    work, so a push that lands mid-scan bumps the generation and the
///    miss path re-scans instead of sleeping through the wakeup.

#include "core/task_scheduler.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <limits>
#include <mutex>
#include <string>
#include <thread>

#include "core/telemetry.hpp"

namespace sdrbist {

namespace {

constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

} // namespace

std::size_t task_scheduler::default_thread_count_impl() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

task_scheduler::run_stats task_scheduler::run(task_graph graph) const {
    run_stats stats;
    const std::size_t n = graph.nodes_.size();
    if (n == 0)
        return stats;
    const std::size_t workers = std::min(threads_, n);

    struct run_state {
        run_state(std::vector<task_graph::node>& graph_nodes,
                  std::size_t node_count, std::size_t worker_count)
            : nodes(graph_nodes), pending(node_count), deques(worker_count),
              deque_mutex(worker_count) {}

        std::vector<task_graph::node>& nodes;
        std::vector<std::atomic<std::size_t>> pending;
        std::vector<std::deque<std::size_t>> deques;
        std::vector<std::mutex> deque_mutex;
        std::atomic<std::size_t> remaining{0};
        std::atomic<std::size_t> ready{0}; // queue-depth high-water input
        std::atomic<std::size_t> spawned{0};
        std::atomic<std::size_t> stolen{0};
        std::mutex sleep_mutex;
        std::condition_variable sleep_cv;
        std::uint64_t signal = 0; // wakeup generation, under sleep_mutex
        std::mutex error_mutex;
        std::exception_ptr error;
        std::size_t error_node = npos;
    };
    run_state st(graph.nodes_, n, workers);
    st.remaining.store(n, std::memory_order_relaxed);

    // Seed roots round-robin before any worker exists — no locks needed.
    std::size_t roots = 0;
    for (std::size_t i = 0; i < n; ++i) {
        st.pending[i].store(graph.nodes_[i].dependency_count,
                            std::memory_order_relaxed);
        if (graph.nodes_[i].dependency_count == 0)
            st.deques[roots++ % workers].push_back(i);
    }
    // Node 0 can have no dependencies, so every non-empty graph has a root.
    SDRBIST_EXPECTS(roots > 0);
    st.ready.store(roots, std::memory_order_relaxed);
    telemetry::count_max(telemetry::counter::sched_queue_high_water, roots);

    const auto record_error = [&st](std::size_t node) {
        const std::lock_guard<std::mutex> lock(st.error_mutex);
        if (node < st.error_node) {
            st.error_node = node;
            st.error = std::current_exception();
        }
    };

    const auto worker_loop = [&st, workers, &record_error](std::size_t w) {
        bool named = false;
        for (;;) {
            // Label lazily, not at thread start: telemetry is usually
            // enabled after the scheduler exists (CLI flag before run()).
            if (telemetry::active() && !named) {
                telemetry::set_thread_name("worker-" + std::to_string(w));
                named = true;
            }
            std::uint64_t seen = 0;
            {
                const std::lock_guard<std::mutex> lock(st.sleep_mutex);
                seen = st.signal;
            }
            std::size_t task = npos;
            bool stole = false;
            {
                // Own deque drains FIFO: a single worker runs tasks in
                // submission order (grid order for flat campaigns), which
                // keeps the 1-thread arrival order exact — fault-injection
                // tests and the retired pool's contract rely on it.
                const std::lock_guard<std::mutex> lock(st.deque_mutex[w]);
                if (!st.deques[w].empty()) {
                    task = st.deques[w].front();
                    st.deques[w].pop_front();
                }
            }
            for (std::size_t off = 1; task == npos && off < workers; ++off) {
                // Thieves take the victim's freshest task from the other
                // end, away from the owner's next pop.
                const std::size_t victim = (w + off) % workers;
                const std::lock_guard<std::mutex> lock(
                    st.deque_mutex[victim]);
                if (!st.deques[victim].empty()) {
                    task = st.deques[victim].back();
                    st.deques[victim].pop_back();
                    stole = true;
                }
            }
            if (task == npos) {
                std::unique_lock<std::mutex> lock(st.sleep_mutex);
                if (st.remaining.load(std::memory_order_acquire) == 0)
                    return;
                if (st.signal == seen) {
                    // Idle span: wait() releases the lock while blocked, so
                    // this measures genuine starvation, not contention.
                    const telemetry::scoped_span idle(
                        telemetry::category::idle, "sched.idle");
                    st.sleep_cv.wait(lock, [&st, seen] {
                        return st.signal != seen ||
                               st.remaining.load(
                                   std::memory_order_acquire) == 0;
                    });
                }
                continue;
            }
            st.ready.fetch_sub(1, std::memory_order_relaxed);
            if (stole) {
                st.stolen.fetch_add(1, std::memory_order_relaxed);
                telemetry::count(telemetry::counter::sched_steals);
            }
            telemetry::count(telemetry::counter::sched_tasks);
            {
                const telemetry::scoped_span span(telemetry::category::worker,
                                                  "sched.task", task);
                try {
                    st.nodes[task].fn();
                } catch (...) {
                    record_error(task);
                }
            }
            for (const std::size_t succ : st.nodes[task].successors) {
                if (st.pending[succ].fetch_sub(
                        1, std::memory_order_acq_rel) != 1)
                    continue;
                {
                    const std::lock_guard<std::mutex> lock(st.deque_mutex[w]);
                    st.deques[w].push_back(succ);
                }
                const std::size_t depth =
                    st.ready.fetch_add(1, std::memory_order_relaxed) + 1;
                telemetry::count_max(
                    telemetry::counter::sched_queue_high_water, depth);
                st.spawned.fetch_add(1, std::memory_order_relaxed);
                telemetry::count(telemetry::counter::sched_spawns);
                {
                    const std::lock_guard<std::mutex> lock(st.sleep_mutex);
                    ++st.signal;
                }
                st.sleep_cv.notify_one();
            }
            if (st.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                {
                    const std::lock_guard<std::mutex> lock(st.sleep_mutex);
                    ++st.signal;
                }
                st.sleep_cv.notify_all();
                return; // graph drained; sleepers wake and exit
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w)
        pool.emplace_back(worker_loop, w);
    for (auto& t : pool)
        t.join();

    stats.executed = n;
    stats.spawned = st.spawned.load(std::memory_order_relaxed);
    stats.stolen = st.stolen.load(std::memory_order_relaxed);
    if (st.error)
        std::rethrow_exception(st.error);
    return stats;
}

} // namespace sdrbist
