// sa_campaign: the scenario-campaign front end. Expands a campaign matrix
// file, lints it, fans the cells across worker processes (forked copies of
// this binary that take cell indices over a socket, so a crashing cell
// kills a worker, never the driver), and maintains the failing-seed corpus
// (fixtures/corpus/) that CI replays as a regression-fuzz suite.
//
//   usage: sa_campaign <command> [options] ...
//
//   commands:
//     run [options] <campaign-file>
//         --jobs <n>         concurrent worker processes (default 4)
//         --corpus <dir>     committed corpus: matching failures are known
//         --corpus-out <dir> write NEW failure reproducers here
//         --out <file>       write the JSON campaign report
//         --budget <sec>     wall-clock budget; remaining cells are skipped
//         --no-shrink        record new failures without axis shrinking
//         --in-process       run cells on the driver thread (no crash cells)
//         exit 0 = no new failures, 1 = new failures, 2 = usage/lint error
//     replay <entry.repro | dir>...
//         re-run every corpus entry bit-for-bit and check its expectations
//         (--in-process as above)
//         exit 0 = all reproduced, 1 = mismatch, 2 = usage error
//     expand [--count] [--require-at-least <n>] <campaign-file>
//         print the expanded cell ids (or just the count)
//     lint <campaign-file>...
//         lint only; exit like sa_lint (0/1/2)

#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign_spec.hpp"
#include "campaign/corpus.hpp"
#include "campaign/driver.hpp"
#include "lint/campaign_rules.hpp"
#include "util/lexer.hpp"
#include "util/string_util.hpp"

namespace {

namespace fs = std::filesystem;

std::string read_file(const std::string& path, bool& ok) {
    std::ifstream in(path);
    if (!in) {
        ok = false;
        return {};
    }
    std::ostringstream text;
    text << in.rdbuf();
    ok = true;
    return text.str();
}

/// Resolve a campaign's spec-file reference relative to the campaign file's
/// directory, so campaigns are runnable from any working directory.
std::string resolve_spec_path(const std::string& base_file,
                              const std::string& spec_path) {
    if (spec_path.empty() || fs::path(spec_path).is_absolute()) {
        return spec_path;
    }
    return (fs::path(base_file).parent_path() / spec_path).lexically_normal()
        .string();
}

bool load_campaign(const std::string& path, sa::campaign::CampaignSpec& spec) {
    bool ok = false;
    const std::string text = read_file(path, ok);
    if (!ok) {
        std::cerr << "sa_campaign: cannot read " << path << '\n';
        return false;
    }
    try {
        spec = sa::campaign::CampaignSpec::parse(text);
    } catch (const sa::util::ParseError& error) {
        std::cerr << "sa_campaign: " << path << ":" << error.line() << ": "
                  << error.what() << '\n';
        return false;
    }
    if (!spec.cell().spec_file.empty()) {
        spec.spec_file(resolve_spec_path(path, spec.cell().spec_file));
    }
    return true;
}

/// Numeric flag values are read whole through the checked takers of the
/// text grammars: `12abc`, `-1` or `abc` is an error naming the flag, never
/// a parsed prefix or a wrapped negative.
std::uint64_t uint_flag(const std::string& flag, const std::string& text) {
    sa::util::Lexer lexer(text);
    const std::uint64_t value =
        lexer.take_uint("a number for " + flag, std::numeric_limits<std::uint64_t>::max());
    if (!lexer.at_end()) {
        lexer.fail("expected one number for " + flag + ", got '" + text + "'");
    }
    return value;
}

int usage() {
    std::cerr << "usage: sa_campaign run|replay|expand|lint ...\n"
                 "       (see the header of tools/sa_campaign.cpp)\n";
    return 2;
}

int cmd_lint(const std::vector<std::string>& files) {
    if (files.empty()) {
        return usage();
    }
    bool ok = true;
    for (const std::string& file : files) {
        sa::campaign::CampaignSpec spec;
        if (!load_campaign(file, spec)) {
            ok = false;
            continue;
        }
        const sa::lint::LintReport report = sa::lint::lint_campaign(spec);
        std::cout << file << ":\n" << report.str() << '\n';
        ok = ok && report.ok();
    }
    return ok ? 0 : 1;
}

int cmd_expand(const std::vector<std::string>& args) {
    bool count_only = false;
    std::uint64_t require_at_least = 0;
    std::string file;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--count") {
            count_only = true;
        } else if (args[i] == "--require-at-least" && i + 1 < args.size()) {
            require_at_least = uint_flag("--require-at-least", args[++i]);
        } else if (!args[i].empty() && args[i].front() == '-') {
            return usage();
        } else {
            file = args[i];
        }
    }
    if (file.empty()) {
        return usage();
    }
    sa::campaign::CampaignSpec spec;
    if (!load_campaign(file, spec)) {
        return 2;
    }
    if (count_only) {
        std::cout << spec.cell_count() << '\n';
    } else {
        for (const auto& cell : spec.expand()) {
            std::cout << cell.id() << '\n';
        }
    }
    if (require_at_least > 0 && spec.cell_count() < require_at_least) {
        std::cerr << "sa_campaign: matrix has " << spec.cell_count()
                  << " cells, required at least " << require_at_least << '\n';
        return 2;
    }
    return 0;
}

/// Forked workers are copies of this process; in-process mode has none.
std::string worker_exe(bool in_process) {
    return in_process ? std::string{} : std::string{"/proc/self/exe"};
}

int cmd_replay(const std::vector<std::string>& args) {
    bool in_process = false;
    std::vector<std::string> paths;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--in-process") {
            in_process = true;
        } else if (!args[i].empty() && args[i].front() == '-') {
            return usage();
        } else {
            paths.push_back(args[i]);
        }
    }
    if (paths.empty()) {
        return usage();
    }

    std::vector<std::pair<std::string, sa::campaign::CorpusEntry>> entries;
    try {
        for (const std::string& path : paths) {
            if (fs::is_directory(path)) {
                for (auto& entry : sa::campaign::load_corpus(path)) {
                    entries.push_back(std::move(entry));
                }
            } else {
                entries.emplace_back(path, sa::campaign::load_corpus_entry(path));
            }
        }
    } catch (const sa::util::ParseError& error) {
        // load_corpus_entry() puts the file and line in the message.
        std::cerr << "sa_campaign: " << error.what() << '\n';
        return 2;
    }

    sa::campaign::DriverOptions options;
    options.worker_exe = worker_exe(in_process);
    options.shrink = false;
    sa::campaign::CampaignDriver driver(options);

    bool all_reproduced = true;
    for (auto& [path, entry] : entries) {
        sa::campaign::CellConfig cell = entry.cell;
        cell.spec_file = resolve_spec_path(path, cell.spec_file);
        const sa::campaign::CellResult result = driver.run_single(cell);
        const auto mismatches = entry.mismatches(result.verdict_json);
        if (mismatches.empty()) {
            std::cout << "REPRODUCED " << path << " (" << entry.signature()
                      << ")\n";
        } else {
            all_reproduced = false;
            std::cout << "MISMATCH   " << path << "\n";
            for (const std::string& line : mismatches) {
                std::cout << "  " << line << '\n';
            }
        }
    }
    return all_reproduced ? 0 : 1;
}

int cmd_run(const std::vector<std::string>& args) {
    bool in_process = false;
    sa::campaign::DriverOptions options;
    std::string corpus_dir;
    std::string corpus_out;
    std::string out_path;
    std::string file;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& arg = args[i];
        if (arg == "--jobs" && i + 1 < args.size()) {
            options.jobs = uint_flag(arg, args[++i]);
        } else if (arg == "--corpus" && i + 1 < args.size()) {
            corpus_dir = args[++i];
        } else if (arg == "--corpus-out" && i + 1 < args.size()) {
            corpus_out = args[++i];
        } else if (arg == "--out" && i + 1 < args.size()) {
            out_path = args[++i];
        } else if (arg == "--budget" && i + 1 < args.size()) {
            options.budget_seconds = uint_flag(arg, args[++i]);
        } else if (arg == "--no-shrink") {
            options.shrink = false;
        } else if (arg == "--in-process") {
            in_process = true;
        } else if (!arg.empty() && arg.front() == '-') {
            return usage();
        } else {
            file = arg;
        }
    }
    if (file.empty()) {
        return usage();
    }

    sa::campaign::CampaignSpec spec;
    if (!load_campaign(file, spec)) {
        return 2;
    }
    const sa::lint::LintReport lint_report = sa::lint::lint_campaign(spec);
    if (!lint_report.ok()) {
        std::cerr << "sa_campaign: " << file << " fails lint:\n"
                  << lint_report.str() << '\n';
        return 2;
    }

    if (!corpus_dir.empty()) {
        try {
            for (const auto& [path, entry] : sa::campaign::load_corpus(corpus_dir)) {
                options.known_signatures.push_back(entry.signature());
            }
        } catch (const sa::util::ParseError& error) {
            std::cerr << "sa_campaign: " << error.what() << '\n';
            return 2;
        }
    }
    options.worker_exe = worker_exe(in_process);

    sa::campaign::CampaignDriver driver(options);
    const sa::campaign::CampaignReport report = driver.run(spec);
    std::cout << report.str();

    if (!out_path.empty()) {
        std::ofstream out(out_path);
        if (!out) {
            std::cerr << "sa_campaign: cannot write " << out_path << '\n';
            return 2;
        }
        out << report.json() << '\n';
    }
    if (!corpus_out.empty() && report.has_new_failures()) {
        std::error_code ec;
        fs::create_directories(corpus_out, ec);
        for (const auto& entry : report.new_entries) {
            const fs::path path = fs::path(corpus_out) / entry.suggested_filename();
            std::ofstream out(path);
            out << entry.str();
            std::cout << "  reproducer written: " << path.string() << '\n';
        }
    }
    return report.has_new_failures() ? 1 : 0;
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        return usage();
    }
    const std::string command = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    try {
        if (command == "run") {
            return cmd_run(args);
        }
        if (command == "replay") {
            return cmd_replay(args);
        }
        if (command == "expand") {
            return cmd_expand(args);
        }
        if (command == "lint") {
            return cmd_lint(args);
        }
    } catch (const std::exception& error) {
        std::cerr << "sa_campaign: " << error.what() << '\n';
        return 2;
    }
    return usage();
}
