// Seeded grammar mutation test over every text grammar: each committed
// fixture under fixtures/{contracts,specs,campaigns,corpus,bad}, each corpus
// entry's cell block, and a small learn::Trace, mutated thousands of times
// from a fixed seed. Every mutant must either parse — and, where the grammar
// has str(), re-serialize to a fixed point: parse(str(x)).str() == str(x) —
// or throw util::ParseError with a line inside the input. Nothing else may
// escape: no std::out_of_range, no ContractViolation, no crash (the sanitizer
// CI job runs this suite under ASan/UBSan).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign_spec.hpp"
#include "campaign/corpus.hpp"
#include "learn/trace.hpp"
#include "model/contract_parser.hpp"
#include "skills/skill_graph_spec.hpp"
#include "util/lexer.hpp"
#include "util/random.hpp"

namespace {

using namespace sa;

constexpr int kMutantsPerInput = 2000;
constexpr std::uint64_t kSeed = 0x6A3F1D2C;

/// Parse `text` and return its str() (nullopt for a grammar without one).
using ParseFn = std::function<std::optional<std::string>(const std::string&)>;

struct Input {
    std::string name;
    std::string text;
    ParseFn parse;
};

std::optional<std::string> parse_contracts(const std::string& text) {
    (void)model::ContractParser{}.parse(text);
    return std::nullopt;
}
std::optional<std::string> parse_spec(const std::string& text) {
    return skills::SkillGraphSpec::parse(text).str();
}
std::optional<std::string> parse_campaign(const std::string& text) {
    return campaign::CampaignSpec::parse(text).str();
}
std::optional<std::string> parse_cell(const std::string& text) {
    return campaign::CellConfig::parse(text).str();
}
std::optional<std::string> parse_entry(const std::string& text) {
    return campaign::CorpusEntry::parse(text).str();
}
std::optional<std::string> parse_trace(const std::string& text) {
    return learn::Trace::parse(text).str();
}

std::string read_file(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::vector<Input> inputs() {
    namespace fs = std::filesystem;
    std::vector<Input> out;
    for (const char* dir : {"contracts", "specs", "campaigns", "corpus", "bad"}) {
        std::vector<fs::path> files;
        for (const auto& entry : fs::directory_iterator(fs::path(SA_FIXTURES_DIR) / dir)) {
            files.push_back(entry.path());
        }
        std::sort(files.begin(), files.end());
        for (const fs::path& file : files) {
            const std::string ext = file.extension().string();
            const std::string text = read_file(file);
            const std::string name = std::string(dir) + "/" + file.filename().string();
            if (ext == ".contracts") {
                out.push_back({name, text, parse_contracts});
            } else if (ext == ".skills") {
                out.push_back({name, text, parse_spec});
            } else if (ext == ".campaign") {
                out.push_back({name, text, parse_campaign});
            } else if (ext == ".repro") {
                out.push_back({name, text, parse_entry});
                out.push_back({name + " (cell)",
                               campaign::CorpusEntry::parse(text).cell.str(), parse_cell});
            } else {
                ADD_FAILURE() << "fixture of unknown grammar: " << name;
            }
        }
    }
    learn::Trace trace;
    trace.set_meta("scenario", "drift_demo");
    trace.set_meta("seed", "7");
    trace.samples.push_back({0, "drive.gap", 48.125});
    trace.samples.push_back({50'000'000, "sensor.radar", -0.30000000000000004});
    trace.samples.push_back({100'000'000, "skill.acc_driving", 1.0 / 3.0});
    out.push_back({"trace", trace.str(), parse_trace});
    return out;
}

/// 1-3 byte deletes, inserts, replacements or slice duplications over the
/// grammar alphabet, or a splice of a number past every integer type.
std::string mutate(std::string text, RandomEngine& rng) {
    static const std::string kAlphabet = "{}();:./\"-> \n\t\r019xaemnsu_#=";
    static const std::string kHuge = "99999999999999999999999";
    const auto edits = rng.uniform_int(1, 3);
    for (std::int64_t e = 0; e < edits; ++e) {
        const std::size_t at = rng.index(text.size() + 1);
        const char c = kAlphabet[rng.index(kAlphabet.size())];
        switch (rng.uniform_int(0, 4)) {
        case 0:
            if (at < text.size()) {
                text.erase(at, 1);
            }
            break;
        case 1: text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), c); break;
        case 2:
            if (at < text.size()) {
                text[at] = c;
            }
            break;
        case 3: {
            const std::string slice =
                text.substr(at, static_cast<std::size_t>(rng.uniform_int(1, 16)));
            text.insert(at, slice);
            break;
        }
        default: text.insert(at, kHuge); break;
        }
    }
    return text;
}

TEST(GrammarMutation, EveryMutantParsesOrThrowsParseErrorWithItsLine) {
    RandomEngine rng(kSeed);
    const std::vector<Input> all = inputs();
    ASSERT_GE(all.size(), 22u); // 19 fixtures, 2 corpus cell blocks, the trace
    for (const Input& input : all) {
        int failures = 0;
        for (int i = 0; i < kMutantsPerInput && failures < 5; ++i) {
            const std::string mutant = mutate(input.text, rng);
            const auto lines =
                static_cast<int>(std::count(mutant.begin(), mutant.end(), '\n')) + 1;
            const auto report = [&](const std::string& what) {
                ++failures;
                ADD_FAILURE() << input.name << " mutant " << i << ": " << what
                              << "\n--- mutant ---\n"
                              << mutant;
            };
            std::optional<std::string> canonical;
            try {
                canonical = input.parse(mutant);
            } catch (const util::ParseError& error) {
                if (error.line() < 0 || error.line() > lines) {
                    report("line " + std::to_string(error.line()) + " outside 0.." +
                           std::to_string(lines) + ": " + error.what());
                }
                continue;
            } catch (const std::exception& error) {
                report(std::string("escaped as a non-ParseError: ") + error.what());
                continue;
            }
            if (!canonical.has_value()) {
                continue;
            }
            try {
                const std::optional<std::string> again = input.parse(*canonical);
                if (again != canonical) {
                    report("str() is not a fixed point:\n" + *canonical + "\n---\n" +
                           again.value_or(""));
                }
            } catch (const std::exception& error) {
                report("str() output does not parse back: " + std::string(error.what()) +
                       "\n" + *canonical);
            }
        }
    }
}

} // namespace
