/// \file table_memo.hpp
/// \brief Process-wide memo of immutable numeric tables keyed by their
///        exact build parameters.
///
/// Several kernels precompute a table that depends only on a few scalar
/// parameters (the continuous Kaiser window LUT, the windowed-sinc
/// polyphase LUT) and are constructed far more often than those
/// parameters change — every LMS cost evaluation builds a reconstructor.
/// A `table_memo` builds each table once, on first request, and hands
/// every later request with the same key a shared pointer to that one
/// immutable copy.  Tables are never evicted: the key space in a process is
/// a handful of option sets.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace sdrbist {

/// Immutable table shared between every holder built with the same key.
using shared_table = std::shared_ptr<const std::vector<double>>;

/// Thread-safe build-once table map.  `Key` must be totally ordered by
/// operator< and identify the build exactly (key floating-point parameters
/// by their bit pattern, so no two distinct builds ever compare equal).
template <class Key> class table_memo {
public:
    /// The table for `key`, calling `build()` (returning
    /// std::vector<double>) only if no table for `key` exists yet.  The
    /// build runs under the lock, so concurrent first requests build once;
    /// a build that throws leaves no entry behind.
    template <class Build> shared_table get(const Key& key, Build&& build) {
        const std::lock_guard lock(mu_);
        auto it = tables_.find(key);
        if (it == tables_.end())
            it = tables_
                     .emplace(key,
                              std::make_shared<const std::vector<double>>(
                                  build()))
                     .first;
        return it->second;
    }

private:
    std::mutex mu_;
    std::map<Key, shared_table> tables_;
};

} // namespace sdrbist
