#include "campaign/corpus.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/string_util.hpp"

namespace sa::campaign {
namespace {

/// Quote a string for the entry grammar (the lexer reads single-line
/// double-quoted strings; reasons never contain quotes or newlines, but
/// strip them defensively so str() always re-parses).
std::string quoted(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
        if (c != '"' && c != '\n' && c != '\r') {
            out += c;
        }
    }
    out += "\"";
    return out;
}

} // namespace

std::string CorpusEntry::signature() const {
    return failure_signature(status, reason, signal);
}

std::string CorpusEntry::suggested_filename() const {
    const std::uint64_t hash = fnv1a64(signature() + "|" + cell.id());
    return cell.campaign + "-" + fingerprint_hex(hash).substr(0, 12) + ".repro";
}

std::string CorpusEntry::str() const {
    std::string out = cell.str();
    out += "expect status " + status + ";\n";
    if (!reason.empty()) {
        out += "expect reason " + quoted(reason) + ";\n";
    }
    if (signal != 0) {
        out += format("expect signal %d;\n", signal);
    }
    if (!fingerprint.empty()) {
        out += "expect fingerprint " + quoted(fingerprint) + ";\n";
    }
    return out;
}

CorpusEntry CorpusEntry::parse(const std::string& text) {
    util::Lexer lex(text);
    CorpusEntry entry;
    entry.cell = CellConfig::parse(lex);
    entry.status.clear();
    while (!lex.at_end()) {
        lex.expect("expect");
        const int line = lex.peek().line;
        const std::string what = lex.take_ident("an expectation kind");
        if (what == "status") {
            entry.status = lex.take_ident("a status");
            if (entry.status != "ok" && entry.status != "violation" &&
                entry.status != "crash") {
                throw util::ParseError(line, "unknown status '" + entry.status + "'");
            }
        } else if (what == "reason") {
            entry.reason = lex.take_string("a quoted reason");
        } else if (what == "signal") {
            entry.signal = static_cast<int>(
                lex.take_uint("a signal number", std::numeric_limits<int>::max()));
        } else if (what == "fingerprint") {
            // Written quoted (see str()); a bare hex16 is one Ident or
            // Number token, so hand-written entries may leave the quotes off.
            if (lex.peek().kind != util::TokKind::String &&
                lex.peek().kind != util::TokKind::Ident &&
                lex.peek().kind != util::TokKind::Number) {
                lex.fail("expected a fingerprint");
            }
            entry.fingerprint = std::string(lex.take().text);
        } else {
            throw util::ParseError(line, "unknown expectation '" + what + "'");
        }
        lex.expect(";");
    }
    if (entry.status.empty()) {
        throw util::ParseError(0, "corpus entry lacks 'expect status'");
    }
    return entry;
}

std::vector<std::string>
CorpusEntry::mismatches(const std::string& verdict_json) const {
    std::vector<std::string> out;
    const std::string got_status = json_string_field(verdict_json, "status");
    const std::string got_reason = json_string_field(verdict_json, "reason");
    const int got_signal =
        static_cast<int>(json_int_field(verdict_json, "signal", 0));
    if (got_status != status) {
        out.push_back("status: expected '" + status + "', got '" + got_status +
                      "'");
    }
    if (!reason.empty() && got_reason != reason) {
        out.push_back("reason: expected '" + reason + "', got '" + got_reason +
                      "'");
    }
    if (signal != 0 && got_signal != signal) {
        out.push_back(format("signal: expected %d, got %d", signal, got_signal));
    }
    if (!fingerprint.empty()) {
        const std::string actual = fingerprint_hex(fnv1a64(verdict_json));
        if (actual != fingerprint) {
            out.push_back("fingerprint: expected " + fingerprint + ", got " +
                          actual);
        }
    }
    return out;
}

CorpusEntry load_corpus_entry(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        throw util::ParseError(0, "cannot read " + path);
    }
    std::ostringstream text;
    text << in.rdbuf();
    try {
        return CorpusEntry::parse(text.str());
    } catch (const util::ParseError& error) {
        throw util::ParseError(error.line(), format("%s:%d: %s", path.c_str(),
                                                    error.line(), error.what()));
    }
}

std::vector<std::pair<std::string, CorpusEntry>>
load_corpus(const std::string& directory) {
    namespace fs = std::filesystem;
    std::vector<std::pair<std::string, CorpusEntry>> out;
    std::error_code ec;
    if (!fs::is_directory(directory, ec)) {
        return out;
    }
    std::vector<fs::path> paths;
    for (const auto& entry : fs::directory_iterator(directory)) {
        if (entry.is_regular_file() && entry.path().extension() == ".repro") {
            paths.push_back(entry.path());
        }
    }
    std::sort(paths.begin(), paths.end());
    for (const fs::path& path : paths) {
        out.emplace_back(path.string(), load_corpus_entry(path.string()));
    }
    return out;
}

} // namespace sa::campaign
