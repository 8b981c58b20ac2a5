#include "core/fault_injection.hpp"

#include "core/contracts.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

namespace sdrbist::fault_injection {

const char* to_string(site s) {
    switch (s) {
    case site::stage_stimulus: return "stage.stimulus";
    case site::stage_tx_capture: return "stage.tx-capture";
    case site::stage_calibration: return "stage.calibration";
    case site::stage_reconstruction: return "stage.reconstruction";
    case site::stage_grading: return "stage.grading";
    case site::shard_read: return "shard.read";
    case site::shard_write: return "shard.write";
    case site::shard_merge: return "shard.merge";
    case site::pool_dispatch: return "pool.dispatch";
    case site::journal_append: return "journal.append";
    case site::service_send: return "service.send";
    case site::service_recv: return "service.recv";
    case site::store_load: return "store.load";
    case site::store_store: return "store.store";
    }
    return "unknown";
}

namespace {

enum class action_kind { throw_transient, throw_contract, corrupt_bytes, delay };
enum class trigger_kind { always, nth, every, probability };

struct clause {
    int site_index = -1; ///< -1 = matches every site
    action_kind action = action_kind::throw_transient;
    int delay_ms = 0;
    trigger_kind trigger = trigger_kind::always;
    std::uint64_t n = 0;
    double p = 0.0;
    std::uint64_t seed = 0;
};

struct registry {
    std::mutex mutex;              ///< guards the clause install and scan
    std::vector<clause> clauses;
    std::array<std::atomic<std::uint64_t>, site_count> arrivals{};
    std::array<std::atomic<std::uint64_t>, site_count> fired{};
};

registry& reg() {
    static registry r;
    return r;
}

/// splitmix64 finaliser — the same bit mixer the campaign seed derivation
/// uses; enough avalanche to decorrelate (seed, site, ordinal) draws.
std::uint64_t mix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/// Deterministic Bernoulli draw for one (seeded clause, site, arrival).
bool bernoulli(const clause& c, std::size_t site_index,
               std::uint64_t ordinal) {
    const std::uint64_t x =
        mix64(c.seed ^ mix64(static_cast<std::uint64_t>(site_index) + 1) ^
              mix64(ordinal));
    const double u =
        static_cast<double>(x >> 11) * 0x1.0p-53; // uniform in [0, 1)
    return u < c.p;
}

bool triggered(const clause& c, std::size_t site_index,
               std::uint64_t ordinal) {
    switch (c.trigger) {
    case trigger_kind::always: return true;
    case trigger_kind::nth: return ordinal == c.n;
    case trigger_kind::every: return c.n != 0 && ordinal % c.n == 0;
    case trigger_kind::probability: return bernoulli(c, site_index, ordinal);
    }
    return false;
}

[[noreturn]] void bad_spec(const std::string& what, const std::string& text) {
    throw contract_violation("fault spec: " + what + " in `" + text + "`");
}

std::string trim(const std::string& s) {
    std::size_t b = s.find_first_not_of(" \t");
    std::size_t e = s.find_last_not_of(" \t");
    return b == std::string::npos ? std::string() : s.substr(b, e - b + 1);
}

std::vector<std::string> split(const std::string& s, char sep) {
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == sep) {
            out.push_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

int parse_site(const std::string& name, const std::string& text) {
    if (name == "*")
        return -1;
    for (std::size_t i = 0; i < site_count; ++i)
        if (name == to_string(static_cast<site>(i)))
            return static_cast<int>(i);
    bad_spec("unknown site `" + name + "`", text);
}

std::uint64_t parse_u64(const std::string& s, const std::string& text) {
    // from_chars on an unsigned type takes digits only (no sign, no
    // whitespace) and reports overflow; a full match rejects the rest.
    std::uint64_t v = 0;
    const auto res = std::from_chars(s.data(), s.data() + s.size(), v);
    if (res.ec != std::errc() || res.ptr != s.data() + s.size())
        bad_spec("bad number `" + s + "`", text);
    return v;
}

double parse_probability(const std::string& s, const std::string& text) {
    try {
        std::size_t pos = 0;
        const double v = std::stod(s, &pos);
        if (pos != s.size() || !(v >= 0.0 && v <= 1.0))
            bad_spec("probability must be in [0, 1], got `" + s + "`", text);
        return v;
    } catch (const contract_violation&) {
        throw;
    } catch (const std::exception&) {
        bad_spec("bad probability `" + s + "`", text);
    }
}

void parse_trigger(clause& c, const std::string& trigger,
                   const std::string& text) {
    if (trigger.rfind("count=", 0) == 0) {
        c.trigger = trigger_kind::nth;
        c.n = parse_u64(trigger.substr(6), text);
        if (c.n == 0)
            bad_spec("count must be >= 1", text);
    } else if (trigger.rfind("every=", 0) == 0) {
        c.trigger = trigger_kind::every;
        c.n = parse_u64(trigger.substr(6), text);
        if (c.n == 0)
            bad_spec("every must be >= 1", text);
    } else if (trigger.rfind("p=", 0) == 0) {
        const std::vector<std::string> parts = split(trigger.substr(2), ',');
        if (parts.size() != 2 || parts[1].rfind("seed=", 0) != 0)
            bad_spec("probability trigger must be `p=<float>,seed=<int>`",
                     text);
        c.trigger = trigger_kind::probability;
        c.p = parse_probability(parts[0], text);
        c.seed = parse_u64(parts[1].substr(5), text);
    } else {
        bad_spec("unknown trigger `" + trigger + "`", text);
    }
}

clause parse_clause(const std::string& text) {
    const std::vector<std::string> parts = split(text, ':');
    if (parts.size() < 2 || parts.size() > 3)
        bad_spec("clause must be `site:action[:trigger]`", text);
    clause c;
    c.site_index = parse_site(trim(parts[0]), text);
    const std::string action = trim(parts[1]);
    if (action == "throw-transient") {
        c.action = action_kind::throw_transient;
    } else if (action == "throw-contract") {
        c.action = action_kind::throw_contract;
    } else if (action == "corrupt-bytes") {
        c.action = action_kind::corrupt_bytes;
    } else if (action.rfind("delay-ms=", 0) == 0) {
        c.action = action_kind::delay;
        const std::uint64_t ms = parse_u64(action.substr(9), text);
        if (ms > static_cast<std::uint64_t>(std::numeric_limits<int>::max()))
            bad_spec("delay-ms must fit in int, got `" + action.substr(9) + "`",
                     text);
        c.delay_ms = static_cast<int>(ms);
    } else {
        bad_spec("unknown action `" + action + "`", text);
    }
    if (parts.size() == 3)
        parse_trigger(c, trim(parts[2]), text);
    return c;
}

void install(std::vector<clause> clauses) {
    registry& r = reg();
    const std::lock_guard<std::mutex> lock(r.mutex);
    r.clauses = std::move(clauses);
    for (auto& a : r.arrivals)
        a.store(0, std::memory_order_relaxed);
    for (auto& f : r.fired)
        f.store(0, std::memory_order_relaxed);
    detail::g_armed.store(r.clauses.empty() ? 0u : 1u,
                          std::memory_order_relaxed);
}

/// Read SDRBIST_FAULT_SPEC once at process start so any binary — tests,
/// CLI, benches — can be fault-armed from the environment alone.
[[maybe_unused]] const bool g_env_armed = [] {
    arm_from_env();
    return true;
}();

} // namespace

namespace detail {

void fire_slow(site s) {
    registry& r = reg();
    const auto idx = static_cast<std::size_t>(s);
    const std::uint64_t ordinal =
        r.arrivals[idx].fetch_add(1, std::memory_order_relaxed) + 1;
    std::int64_t delay_ms = 0; // a sum of int clauses cannot overflow it
    bool throw_transient = false;
    bool throw_contract = false;
    {
        const std::lock_guard<std::mutex> lock(r.mutex);
        for (const clause& c : r.clauses) {
            if (c.action == action_kind::corrupt_bytes)
                continue;
            if (c.site_index >= 0 &&
                c.site_index != static_cast<int>(idx))
                continue;
            if (!triggered(c, idx, ordinal))
                continue;
            r.fired[idx].fetch_add(1, std::memory_order_relaxed);
            switch (c.action) {
            case action_kind::delay: delay_ms += c.delay_ms; break;
            case action_kind::throw_transient: throw_transient = true; break;
            case action_kind::throw_contract: throw_contract = true; break;
            case action_kind::corrupt_bytes: break;
            }
        }
    }
    if (delay_ms > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    if (throw_contract)
        throw contract_violation(std::string("injected contract fault at ") +
                                 to_string(s));
    if (throw_transient)
        throw transient_fault(std::string("injected transient fault at ") +
                              to_string(s));
}

bool corrupt_slow(site s, std::string& payload) {
    registry& r = reg();
    const auto idx = static_cast<std::size_t>(s);
    // Reuse the ordinal fire() counted for this operation (sites call
    // fire() first); a site that never fires still gets ordinal >= 1.
    const std::uint64_t ordinal =
        std::max<std::uint64_t>(r.arrivals[idx].load(std::memory_order_relaxed),
                                1);
    bool corrupted = false;
    {
        const std::lock_guard<std::mutex> lock(r.mutex);
        for (const clause& c : r.clauses) {
            if (c.action != action_kind::corrupt_bytes)
                continue;
            if (c.site_index >= 0 &&
                c.site_index != static_cast<int>(idx))
                continue;
            if (!triggered(c, idx, ordinal))
                continue;
            r.fired[idx].fetch_add(1, std::memory_order_relaxed);
            corrupted = true;
        }
    }
    if (corrupted) {
        // Deterministic mangle: drop the tail (a torn write) and append
        // bytes no serialiser here emits, so parsers reliably reject it.
        payload.resize(payload.size() / 2);
        payload += "\x01!injected-corruption";
    }
    return corrupted;
}

} // namespace detail

void arm(const std::string& spec) {
    std::vector<clause> clauses;
    for (const std::string& raw : split(spec, ';')) {
        const std::string text = trim(raw);
        if (text.empty())
            continue;
        clauses.push_back(parse_clause(text));
    }
    install(std::move(clauses));
}

bool arm_from_env() {
    const char* spec = std::getenv("SDRBIST_FAULT_SPEC");
    if (spec == nullptr || *spec == '\0')
        return false;
    arm(spec);
    return armed();
}

void disarm() { install({}); }

bool armed() {
    return detail::g_armed.load(std::memory_order_relaxed) != 0;
}

std::uint64_t arrivals(site s) {
    return reg()
        .arrivals[static_cast<std::size_t>(s)]
        .load(std::memory_order_relaxed);
}

std::uint64_t fired(site s) {
    return reg()
        .fired[static_cast<std::size_t>(s)]
        .load(std::memory_order_relaxed);
}

} // namespace sdrbist::fault_injection
