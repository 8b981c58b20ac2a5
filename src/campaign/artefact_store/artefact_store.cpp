#include "campaign/artefact_store/artefact_store.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h> // getpid: temp names must be unique across processes
#endif

#include "bist/config_canonical.hpp"
#include "campaign/artefact_store/byte_codec.hpp"
#include "campaign/artefact_store/stage_codec.hpp"
#include "campaign/export.hpp"
#include "core/contracts.hpp"
#include "core/fault_injection.hpp"
#include "core/hash.hpp"
#include "core/telemetry.hpp"

namespace sdrbist::campaign {

namespace fs = std::filesystem;

namespace {

constexpr const char* store_extension = ".sab";

bool is_hex_key(const std::string& stem) {
    if (stem.size() != 16)
        return false;
    for (const char c : stem)
        if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
            return false;
    return true;
}

/// "<16-hex>-<kind>" → true when the kind is one of the six record kinds.
bool is_entry_stem(const std::string& stem) {
    if (stem.size() < 18 || !is_hex_key(stem.substr(0, 16)) ||
        stem[16] != '-')
        return false;
    const std::string kind = stem.substr(17);
    if (kind == scenario_record_kind)
        return true;
    for (const bist::stage s : bist::stage_order)
        if (bist::to_string(s) == kind)
            return true;
    return false;
}

/// True when the header names a version this build cannot read: a plain
/// miss, not corruption.  A version that is not a plausible number is
/// corruption (as_size throws).
bool is_skewed(const json_value& header) {
    return header.at("store_version").as_size() !=
               static_cast<std::size_t>(store_format_version) ||
           header.at("codec").as_size() !=
               static_cast<std::size_t>(byte_codec_version) ||
           header.at("stage_canonical_version").as_size() !=
               static_cast<std::size_t>(bist::stage_canonical_version);
}

std::string entry_header(std::string_view kind, const std::string& key,
                         std::size_t raw_bytes, const std::string& payload) {
    json_object_writer h;
    h.size_field("store_version",
                 static_cast<std::size_t>(store_format_version));
    h.size_field("codec", static_cast<std::size_t>(byte_codec_version));
    h.string_field("kind", std::string(kind));
    h.string_field("key", key);
    h.size_field("stage_canonical_version",
                 static_cast<std::size_t>(bist::stage_canonical_version));
    h.size_field("raw_bytes", raw_bytes);
    h.size_field("payload_bytes", payload.size());
    h.string_field("payload_fnv",
                   fnv1a64::hex_digest(fnv1a64::hash(payload)));
    return h.str();
}

/// Best-effort LRU touch: a hit makes the entry "recently used" for GC.
void touch_mtime(const fs::path& path) {
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
}

} // namespace

// ---------------------------------------------------------------------------
// entry_store
// ---------------------------------------------------------------------------

entry_store::entry_store(std::string dir) : dir_(std::move(dir)) {
    SDRBIST_EXPECTS(!dir_.empty());
    std::error_code ec;
    fs::create_directories(dir_, ec);
    SDRBIST_EXPECTS(!ec && fs::is_directory(dir_));
}

std::string entry_store::path_for(const std::string& key,
                                  std::string_view kind) const {
    return (fs::path(dir_) /
            (key + "-" + std::string(kind) + store_extension))
        .string();
}

bool entry_store::load(
    const std::string& key, std::string_view kind,
    const std::function<void(const std::string&)>& decode) const {
    const telemetry::scoped_span span(telemetry::category::cache,
                                      "store.load");
    fault_injection::fire(fault_injection::site::store_load);
    const std::string path = path_for(key, kind);
    {
        std::ifstream in(path, std::ios::binary);
        if (!in.good())
            return false; // plain miss
        std::ostringstream buffer;
        buffer << in.rdbuf();
        std::string bytes = buffer.str();
        // Injected load faults garble the just-read bytes, driving the
        // same quarantine path a real on-disk corruption would.
        fault_injection::corrupt(fault_injection::site::store_load, bytes);
        try {
            const std::size_t nl = bytes.find('\n');
            SDRBIST_EXPECTS(nl != std::string::npos);
            const json_value header = parse_json(bytes.substr(0, nl));
            if (is_skewed(header))
                return false; // plain miss — cache-gc's business
            // Current version: the entry must be exactly what its name
            // claims, byte-verified.
            SDRBIST_EXPECTS(header.at("kind").as_string() == kind);
            SDRBIST_EXPECTS(header.at("key").as_string() == key);
            const std::string payload = bytes.substr(nl + 1);
            SDRBIST_EXPECTS(payload.size() ==
                            header.at("payload_bytes").as_size());
            SDRBIST_EXPECTS(fnv1a64::hex_digest(fnv1a64::hash(payload)) ==
                            header.at("payload_fnv").as_string());
            // The decompressor bounds the claimed raw size before it
            // allocates anything.
            decode(byte_codec_decompress(payload,
                                         header.at("raw_bytes").as_size()));
            touch_mtime(path);
            return true;
        } catch (const std::exception&) {
            // Truncated / garbled / checksum mismatch / undecodable.
        }
    }
    // Move the wreck into quarantine/ so the recompute publishes into a
    // clean slot and the evidence survives for inspection.
    if (quarantine_file(path))
        quarantined_.fetch_add(1, std::memory_order_relaxed);
    return false;
}

void entry_store::store(const std::string& key, std::string_view kind,
                        const std::string& raw) const {
    const telemetry::scoped_span span(telemetry::category::cache,
                                      "store.store");
    // Concurrent writers of the same key produce identical content; last
    // rename wins.  Best-effort by design — a failed publish degrades to a
    // future miss, exactly like a real I/O failure.
    try {
        fault_injection::fire(fault_injection::site::store_store);
        const std::string payload = byte_codec_compress(raw);
        std::string body = entry_header(kind, key, raw.size(), payload);
        body += '\n';
        body += payload;
        fault_injection::corrupt(fault_injection::site::store_store, body);
        (void)publish_file(path_for(key, kind), body);
    } catch (const std::exception&) {
    }
}

bool publish_file(const std::string& path, std::string_view body) {
    // Uniqueness: pid distinguishes processes, the counter distinguishes
    // threads and writers within one.
#if defined(__unix__) || defined(__APPLE__)
    const std::uint64_t process_tag = static_cast<std::uint64_t>(::getpid());
#else
    const std::uint64_t process_tag =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
#endif
    static std::atomic<std::uint64_t> sequence{0};
    const std::string tmp =
        path + ".tmp." + fnv1a64::hex_digest(process_tag) + "." +
        std::to_string(sequence.fetch_add(1, std::memory_order_relaxed));
    std::error_code ec;
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        out.write(body.data(), static_cast<std::streamsize>(body.size()));
        out.flush();
        if (!out.good()) {
            fs::remove(tmp, ec);
            return false;
        }
    }
    fs::rename(tmp, path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return false;
    }
    return true;
}

bool quarantine_file(const std::string& file) {
    std::error_code ec;
    const fs::path src(file);
    const fs::path dir = src.parent_path() / "quarantine";
    fs::create_directories(dir, ec);
    if (ec)
        return false;
    fs::path dst = dir / src.filename();
    for (int n = 1; fs::exists(dst, ec) && n < 1000; ++n)
        dst = dir / (src.filename().string() + "." + std::to_string(n));
    fs::rename(src, dst, ec);
    return !ec;
}

// ---------------------------------------------------------------------------
// stage_artefact_store
// ---------------------------------------------------------------------------

stage_artefact_store::stage_artefact_store(std::string dir)
    : entries_(std::move(dir)) {}

std::string stage_artefact_store::path_for(std::uint64_t digest,
                                           bist::stage s) const {
    return entries_.path_for(fnv1a64::hex_digest(digest), bist::to_string(s));
}

void stage_artefact_store::load(
    std::uint64_t digest, bist::stage s,
    const std::function<void(const json_value&)>& decode) {
    std::size_t raw_bytes = 0;
    const bool hit = entries_.load(fnv1a64::hex_digest(digest),
                                   bist::to_string(s),
                                   [&](const std::string& raw) {
                                       decode(parse_json(raw));
                                       raw_bytes = raw.size();
                                   });
    if (!hit) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        telemetry::count(telemetry::counter::store_misses);
        return;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    telemetry::count(telemetry::counter::store_hits);
    bytes_.fetch_add(raw_bytes, std::memory_order_relaxed);
    telemetry::count(telemetry::counter::store_bytes, raw_bytes);
}

void stage_artefact_store::store(std::uint64_t digest, bist::stage s,
                                 const std::string& raw) {
    entries_.store(fnv1a64::hex_digest(digest), bist::to_string(s), raw);
}

std::shared_ptr<const bist::stimulus_output>
stage_artefact_store::load_stimulus(std::uint64_t digest) {
    std::shared_ptr<const bist::stimulus_output> out;
    load(digest, bist::stage::stimulus, [&](const json_value& v) {
        out = std::make_shared<const bist::stimulus_output>(
            stimulus_from_json(v));
    });
    return out;
}

std::shared_ptr<const bist::tx_capture_output>
stage_artefact_store::load_tx_capture(std::uint64_t digest) {
    std::shared_ptr<const bist::tx_capture_output> out;
    load(digest, bist::stage::tx_capture, [&](const json_value& v) {
        out = std::make_shared<const bist::tx_capture_output>(
            tx_capture_from_json(v));
    });
    return out;
}

std::shared_ptr<const bist::calibration_output>
stage_artefact_store::load_calibration(std::uint64_t digest) {
    std::shared_ptr<const bist::calibration_output> out;
    load(digest, bist::stage::calibration, [&](const json_value& v) {
        out = std::make_shared<const bist::calibration_output>(
            calibration_from_json(v));
    });
    return out;
}

std::shared_ptr<const bist::reconstruction_output>
stage_artefact_store::load_reconstruction(std::uint64_t digest) {
    std::shared_ptr<const bist::reconstruction_output> out;
    load(digest, bist::stage::reconstruction, [&](const json_value& v) {
        out = std::make_shared<const bist::reconstruction_output>(
            reconstruction_from_json(v));
    });
    return out;
}

std::shared_ptr<const bist::grading_output>
stage_artefact_store::load_grading(std::uint64_t digest) {
    std::shared_ptr<const bist::grading_output> out;
    load(digest, bist::stage::grading, [&](const json_value& v) {
        out = std::make_shared<const bist::grading_output>(
            grading_from_json(v));
    });
    return out;
}

void stage_artefact_store::store_stimulus(std::uint64_t digest,
                                          const bist::stimulus_output& out) {
    store(digest, bist::stage::stimulus, stimulus_json(out));
}

void stage_artefact_store::store_tx_capture(
    std::uint64_t digest, const bist::tx_capture_output& out) {
    store(digest, bist::stage::tx_capture, tx_capture_json(out));
}

void stage_artefact_store::store_calibration(
    std::uint64_t digest, const bist::calibration_output& out) {
    store(digest, bist::stage::calibration, calibration_json(out));
}

void stage_artefact_store::store_reconstruction(
    std::uint64_t digest, const bist::reconstruction_output& out) {
    store(digest, bist::stage::reconstruction, reconstruction_json(out));
}

void stage_artefact_store::store_grading(std::uint64_t digest,
                                         const bist::grading_output& out) {
    store(digest, bist::stage::grading, grading_json(out));
}

// ---------------------------------------------------------------------------
// Store lifecycle tooling
// ---------------------------------------------------------------------------

namespace {

/// How a store-directory file would behave on the next warm run.
enum class entry_class { entry, stale, corrupt, stray_tmp, foreign };

/// Classify one file the way entry_store::load would treat it.
/// Header-only (the payload checksum is load's business): a scan must stay
/// cheap on multi-GB stores.  Sets `version` for files that parse far
/// enough to expose a store_version.
entry_class classify(const fs::path& path, std::size_t& version) {
    const std::string filename = path.filename().string();
    // Leftover atomic-publish temp: "<stem>.sab.tmp.<tag>.<seq>".
    if (filename.size() > 16 && is_hex_key(filename.substr(0, 16)) &&
        filename.find(".sab.tmp.") != std::string::npos)
        return entry_class::stray_tmp;
    const std::string stem = path.stem().string();
    if (path.extension() != store_extension || !is_entry_stem(stem))
        return entry_class::foreign;

    std::ifstream in(path, std::ios::binary);
    if (!in.good())
        return entry_class::corrupt;
    std::string header_line;
    if (!std::getline(in, header_line))
        return entry_class::corrupt;
    try {
        const json_value header = parse_json(header_line);
        version = header.at("store_version").as_size();
        if (is_skewed(header))
            return entry_class::stale;
        if (header.at("kind").as_string() != stem.substr(17) ||
            header.at("key").as_string() != stem.substr(0, 16))
            return entry_class::corrupt;
        std::error_code ec;
        const std::uintmax_t size = fs::file_size(path, ec);
        if (ec || size != header_line.size() + 1 +
                              header.at("payload_bytes").as_size())
            return entry_class::corrupt;
        return entry_class::entry;
    } catch (const std::exception&) {
        return entry_class::corrupt;
    }
}

/// One healthy entry, as GC sees it.
struct healthy_entry {
    fs::path path;
    std::uintmax_t size = 0;
    fs::file_time_type mtime{};
    std::string filename; ///< deterministic tie-break for equal mtimes
};

template <typename OnRemovable, typename OnEntry>
store_dir_stats walk_store_dir(const std::string& dir,
                               OnRemovable&& on_removable,
                               OnEntry&& on_entry) {
    SDRBIST_EXPECTS(fs::is_directory(dir));
    store_dir_stats stats;
    for (const auto& entry : fs::directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        std::size_t version = 0;
        const entry_class c = classify(entry.path(), version);
        if (c == entry_class::foreign)
            continue; // not ours: never counted, never touched
        std::error_code ec;
        const std::uintmax_t size = fs::file_size(entry.path(), ec);
        stats.bytes += ec ? 0 : size;
        switch (c) {
        case entry_class::entry:
            ++stats.entries;
            ++stats.version_histogram[version];
            on_entry(entry.path(), ec ? 0 : size);
            break;
        case entry_class::stale:
            ++stats.stale;
            ++stats.version_histogram[version];
            on_removable(entry.path(), ec ? 0 : size);
            break;
        case entry_class::corrupt:
            ++stats.corrupt;
            on_removable(entry.path(), ec ? 0 : size);
            break;
        case entry_class::stray_tmp:
            ++stats.stray_tmp;
            on_removable(entry.path(), ec ? 0 : size);
            break;
        case entry_class::foreign:
            break;
        }
    }
    return stats;
}

} // namespace

store_dir_stats scan_store_dir(const std::string& dir) {
    return walk_store_dir(
        dir, [](const fs::path&, std::uintmax_t) {},
        [](const fs::path&, std::uintmax_t) {});
}

store_gc_result gc_store_dir(const std::string& dir,
                             store_gc_policy policy) {
    store_gc_result out;
    std::vector<healthy_entry> healthy;
    const store_dir_stats stats = walk_store_dir(
        dir,
        [&](const fs::path& path, std::uintmax_t size) {
            std::error_code ec;
            if (fs::remove(path, ec) && !ec) {
                ++out.removed;
                out.bytes_freed += size;
            }
        },
        [&](const fs::path& path, std::uintmax_t size) {
            std::error_code ec;
            healthy_entry e;
            e.path = path;
            e.size = size;
            e.mtime = fs::last_write_time(path, ec);
            e.filename = path.filename().string();
            healthy.push_back(std::move(e));
        });
    out.scanned = stats.files();

    const auto evict = [&](const healthy_entry& e) {
        std::error_code ec;
        if (fs::remove(e.path, ec) && !ec) {
            ++out.evicted;
            out.bytes_freed += e.size;
            telemetry::count(telemetry::counter::store_evictions);
        }
    };

    // Age budget first: idleness is absolute, independent of store size.
    if (policy.max_age_s > 0) {
        const auto now = fs::file_time_type::clock::now();
        const auto horizon =
            now - std::chrono::seconds(
                      static_cast<std::int64_t>(policy.max_age_s));
        std::vector<healthy_entry> young;
        young.reserve(healthy.size());
        for (auto& e : healthy) {
            if (e.mtime < horizon)
                evict(e);
            else
                young.push_back(std::move(e));
        }
        healthy = std::move(young);
    }

    // Size / count budgets: evict least-recently-used first (oldest mtime;
    // filename breaks ties deterministically).
    if (policy.max_bytes > 0 || policy.max_entries > 0) {
        std::sort(healthy.begin(), healthy.end(),
                  [](const healthy_entry& a, const healthy_entry& b) {
                      if (a.mtime != b.mtime)
                          return a.mtime < b.mtime;
                      return a.filename < b.filename;
                  });
        std::uintmax_t total = 0;
        for (const auto& e : healthy)
            total += e.size;
        std::size_t first_kept = 0;
        while (first_kept < healthy.size() &&
               ((policy.max_bytes > 0 && total > policy.max_bytes) ||
                (policy.max_entries > 0 &&
                 healthy.size() - first_kept > policy.max_entries))) {
            total -= healthy[first_kept].size;
            evict(healthy[first_kept]);
            ++first_kept;
        }
        healthy.erase(healthy.begin(),
                      healthy.begin() +
                          static_cast<std::ptrdiff_t>(first_kept));
    }

    out.kept = healthy.size();
    return out;
}

} // namespace sdrbist::campaign
