#include "campaign/journal.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h> // fsync/ftruncate: per-line durability + rollback
#endif

#include "bist/config_canonical.hpp"
#include "campaign/export.hpp"
#include "campaign/shard_io.hpp"
#include "core/contracts.hpp"
#include "core/fault_injection.hpp"
#include "core/hash.hpp"

namespace sdrbist::campaign {

std::string campaign_identity(const campaign_config& cfg) {
    fnv1a64 h;
    h.update("sdrbist-campaign-journal-v" +
             std::to_string(journal_format_version) + "\n");
    h.update("seed=" + std::to_string(cfg.seed) + "\n");
    h.update("trials=" + std::to_string(cfg.trials) + "\n");
    h.update("reseed=" + std::to_string(static_cast<int>(cfg.reseed)) + "\n");
    h.update("jitter_rel_sigma=" + json_number(cfg.perturb.jitter_rel_sigma) +
             "\n");
    h.update("dcde_static_sigma_s=" +
             json_number(cfg.perturb.dcde_static_sigma_s) + "\n");
    h.update("relax_mask_to_floor=" +
             std::string(cfg.relax_mask_to_floor ? "1" : "0") + "\n");
    h.update("shard=" + std::to_string(cfg.shard.index) + "/" +
             std::to_string(cfg.shard.count) + "\n");
    for (const auto& p : cfg.presets)
        h.update("preset=" + p.name + "\n");
    for (const auto f : cfg.faults)
        h.update(std::string("fault=") + bist::to_string(f) + "\n");
    h.update(bist::canonical_config_text(cfg.base));
    return h.hex();
}

journal_replay read_journal(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in.good())
        throw contract_violation("cannot read journal: " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();

    journal_replay out;
    bool saw_header = false;
    std::size_t offset = 0;
    while (offset < text.size()) {
        const std::size_t nl = text.find('\n', offset);
        if (nl == std::string::npos) {
            ++out.torn_lines; // unterminated tail — the classic torn write
            break;
        }
        const std::string line = text.substr(offset, nl - offset);
        try {
            const json_value doc = parse_json(line);
            const std::string row = doc.at("row").as_string();
            if (!saw_header) {
                if (row != "header" ||
                    doc.at("journal_version").as_size() !=
                        static_cast<std::size_t>(journal_format_version))
                    throw contract_violation("header/version mismatch");
                out.identity = doc.at("identity").as_string();
                saw_header = true;
            } else if (row == "scenario") {
                journal_row jr;
                jr.key = doc.at("key").as_string();
                jr.result = scenario_row_from_json(doc.at("result"));
                out.rows.push_back(std::move(jr));
            }
            // Unknown row kinds pass through silently (forward compat).
        } catch (const std::exception& e) {
            if (!saw_header)
                throw contract_violation("malformed journal header in " +
                                         path + ": " + e.what());
            // Everything from the first bad line on is untrusted; count
            // it and let the writer truncate back to the clean prefix.
            for (std::size_t i = offset; i < text.size(); ++i)
                if (text[i] == '\n')
                    ++out.torn_lines;
            if (text.back() != '\n')
                ++out.torn_lines;
            break;
        }
        offset = nl + 1;
        out.valid_bytes = offset;
    }
    if (!saw_header)
        throw contract_violation("journal has no header: " + path);
    return out;
}

campaign_journal::campaign_journal(const std::string& path,
                                   const std::string& identity,
                                   bool resume) {
    std::uint64_t keep = 0;
    bool need_header = true;
    std::error_code exists_ec;
    if (resume && std::filesystem::exists(path, exists_ec)) {
        const journal_replay replay = read_journal(path);
        SDRBIST_EXPECTS(replay.identity == identity);
        keep = replay.valid_bytes;
        need_header = false;
    }
    // A resume against a journal that does not exist yet is a cold start,
    // not an error: fall through and create a fresh header.  The service
    // worker loop relies on this — it always passes --resume so a
    // restarted worker picks up where its journal left off, first run
    // included.
    {
        // Create if absent, then trim to the clean prefix (drops any torn
        // tail from a crash) before opening for append.
        std::error_code ec;
        if (!std::filesystem::exists(path, ec))
            std::ofstream(path, std::ios::binary).flush();
        std::filesystem::resize_file(path, keep, ec);
        SDRBIST_EXPECTS(!ec);
    }
    file_ = std::fopen(path.c_str(), "ab");
    SDRBIST_EXPECTS(file_ != nullptr);
    if (need_header) {
        json_object_writer o;
        o.string_field("row", "header");
        o.size_field("journal_version",
                     static_cast<std::size_t>(journal_format_version));
        o.string_field("identity", identity);
        std::string line = o.str();
        line += '\n';
        SDRBIST_EXPECTS(write_line(line));
    }
}

campaign_journal::~campaign_journal() {
    if (file_ != nullptr)
        std::fclose(file_);
}

bool campaign_journal::write_line(const std::string& line) {
    // "ab" streams write at end regardless of position, but ftell only
    // reflects it after a seek — and the rollback needs the true offset.
    std::fseek(file_, 0, SEEK_END);
    const long start = std::ftell(file_);
    const std::size_t n = std::fwrite(line.data(), 1, line.size(), file_);
    if (n != line.size() || std::fflush(file_) != 0) {
        // Roll the partial write back so the journal stays parseable.
#if defined(__unix__) || defined(__APPLE__)
        if (start >= 0)
            ftruncate(fileno(file_), static_cast<off_t>(start));
#else
        static_cast<void>(start);
#endif
        return false;
    }
#if defined(__unix__) || defined(__APPLE__)
    fsync(fileno(file_));
#endif
    return true;
}

bool campaign_journal::append(const std::string& key,
                              const scenario_result& r) {
    std::string line;
    try {
        fault_injection::fire(fault_injection::site::journal_append);
        json_object_writer o;
        o.string_field("row", "scenario");
        o.string_field("key", key);
        o.field("result", scenario_row_json(r));
        line = o.str();
        line += '\n';
        fault_injection::corrupt(fault_injection::site::journal_append,
                                 line);
    } catch (const std::exception&) {
        // Best-effort: an injected (or real) serialisation failure drops
        // the line — recovery recomputes this scenario.
        const std::lock_guard<std::mutex> lock(mutex_);
        ++dropped_;
        return false;
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    if (write_line(line)) {
        ++rows_;
        return true;
    }
    ++dropped_;
    return false;
}

std::size_t campaign_journal::rows() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return rows_;
}

std::size_t campaign_journal::dropped() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
}

} // namespace sdrbist::campaign
