/// \file csv_reader.hpp
/// \brief RFC-4180-style CSV reader that tests check the campaign's CSV
///        exports with (quoted cells, doubled quotes, empty cells).
#pragma once

#include <string>
#include <vector>

#include "core/contracts.hpp"

namespace sdrbist::testing {

/// Parse CSV text into rows of cells.  Throws contract_violation on an
/// unterminated quote.
inline std::vector<std::vector<std::string>>
parse_csv(const std::string& text) {
    std::vector<std::vector<std::string>> rows;
    std::vector<std::string> row;
    std::string cell;
    bool in_quotes = false;
    bool cell_started = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (in_quotes) {
            if (c == '"') {
                if (i + 1 < text.size() && text[i + 1] == '"') {
                    cell.push_back('"');
                    ++i;
                } else {
                    in_quotes = false;
                }
            } else {
                cell.push_back(c);
            }
            continue;
        }
        switch (c) {
        case '"':
            in_quotes = true;
            cell_started = true;
            break;
        case ',':
            row.push_back(std::move(cell));
            cell.clear();
            cell_started = true;
            break;
        case '\r':
            break;
        case '\n':
            if (cell_started || !cell.empty() || !row.empty()) {
                row.push_back(std::move(cell));
                cell.clear();
                rows.push_back(std::move(row));
                row.clear();
                cell_started = false;
            }
            break;
        default:
            cell.push_back(c);
            cell_started = true;
        }
    }
    SDRBIST_EXPECTS(!in_quotes);
    if (cell_started || !cell.empty() || !row.empty()) {
        row.push_back(std::move(cell));
        rows.push_back(std::move(row));
    }
    return rows;
}

} // namespace sdrbist::testing
