// Unit tests for the util module: contracts, stats, random, strings.

#include <gtest/gtest.h>

#include "util/alloc_hook.hpp"
#include "util/assert.hpp"
#include "util/lexer.hpp"
#include "util/random.hpp"
#include "util/stable_vector.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"

namespace {

using namespace sa;

// --- assert ----------------------------------------------------------------

TEST(Assert, RequireThrowsContractViolation) {
    EXPECT_THROW(
        [] { SA_REQUIRE(false, "must fail"); }(), ContractViolation);
}

TEST(Assert, RequirePassesSilently) {
    EXPECT_NO_THROW([] { SA_REQUIRE(true, "fine"); }());
}

TEST(Assert, ViolationCarriesLocation) {
    try {
        SA_ASSERT(1 == 2, "numbers disagree");
        FAIL() << "expected throw";
    } catch (const ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find("numbers disagree"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("test_util.cpp"), std::string::npos);
        EXPECT_GT(e.line(), 0);
    }
}

// --- RunningStats ------------------------------------------------------------

TEST(RunningStats, EmptyIsZero) {
    RunningStats s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, MeanMinMax) {
    RunningStats s;
    for (double x : {4.0, 2.0, 6.0, 8.0}) {
        s.add(x);
    }
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 8.0);
    EXPECT_DOUBLE_EQ(s.sum(), 20.0);
}

TEST(RunningStats, VarianceMatchesDefinition) {
    RunningStats s;
    for (double x : {1.0, 2.0, 3.0, 4.0}) {
        s.add(x);
    }
    // population variance of {1,2,3,4} = 1.25
    EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

// --- SampleSet ---------------------------------------------------------------

TEST(SampleSet, PercentilesNearestRank) {
    SampleSet s;
    for (int i = 1; i <= 100; ++i) {
        s.add(static_cast<double>(i));
    }
    EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(s.percentile(99), 99.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(s.median(), 50.0);
}

TEST(SampleSet, EmptyPercentileThrows) {
    SampleSet s;
    EXPECT_THROW((void)s.percentile(50), ContractViolation);
}

TEST(SampleSet, MeanMinMax) {
    SampleSet s;
    s.add(2.0);
    s.add(4.0);
    EXPECT_DOUBLE_EQ(s.mean(), 3.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

// --- RandomEngine --------------------------------------------------------------

TEST(RandomEngine, DeterministicWithSeed) {
    RandomEngine a(42);
    RandomEngine b(42);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
    }
}

TEST(RandomEngine, UniformIntBounds) {
    RandomEngine rng(7);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniform_int(-3, 5);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 5);
    }
}

TEST(RandomEngine, ChanceExtremes) {
    RandomEngine rng(7);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(RandomEngine, ChanceInvalidProbability) {
    RandomEngine rng(7);
    EXPECT_THROW((void)rng.chance(1.5), ContractViolation);
    EXPECT_THROW((void)rng.chance(-0.1), ContractViolation);
}

TEST(RandomEngine, NormalZeroSigmaIsMean) {
    RandomEngine rng(7);
    EXPECT_DOUBLE_EQ(rng.normal(3.5, 0.0), 3.5);
}

TEST(RandomEngine, NormalStatistics) {
    RandomEngine rng(123);
    RunningStats s;
    for (int i = 0; i < 20000; ++i) {
        s.add(rng.normal(10.0, 2.0));
    }
    EXPECT_NEAR(s.mean(), 10.0, 0.1);
    EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(RandomEngine, IndexRequiresNonEmpty) {
    RandomEngine rng(1);
    EXPECT_THROW((void)rng.index(0), ContractViolation);
}

// --- string_util ----------------------------------------------------------------

TEST(StringUtil, StartsEndsWith) {
    EXPECT_TRUE(starts_with("temp.ecu1", "temp."));
    EXPECT_FALSE(starts_with("te", "temp."));
}

TEST(StringUtil, Format) {
    EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
    EXPECT_EQ(format("%.2f", 1.5), "1.50");
}

// --- Lexer: the shared lexical rules of every text grammar -------------------------

TEST(Lexer, OneRuleSetForEveryGrammar) {
    util::Lexer lex("a_1 0x1A0 10ms 2.5ms .5 1..16 5. -> \"x // y\" // comment\n} ;");
    std::vector<std::pair<util::TokKind, std::string>> tokens;
    int last_line = 0;
    while (!lex.at_end()) {
        last_line = lex.peek().line;
        const util::Token token = lex.take();
        tokens.emplace_back(token.kind, std::string(token.text));
    }
    using K = util::TokKind;
    const std::vector<std::pair<util::TokKind, std::string>> expected{
        {K::Ident, "a_1"},  {K::Number, "0x1A0"}, {K::Number, "10ms"}, {K::Number, "2.5ms"},
        {K::Number, ".5"},  {K::Number, "1"},     {K::Punct, ".."},    {K::Number, "16"},
        {K::Number, "5"},   {K::Punct, "."},      {K::Punct, "->"},    {K::String, "x // y"},
        {K::Punct, "}"},    {K::Punct, ";"}};
    EXPECT_EQ(tokens, expected);
    EXPECT_EQ(last_line, 2);
    EXPECT_TRUE(util::is_identifier("_a9"));
    EXPECT_FALSE(util::is_identifier("9a"));
    EXPECT_FALSE(util::is_identifier("a.b"));
}

TEST(Lexer, CheckedTakersReadWholeTokensInRange) {
    util::Lexer lex("42 0xff 2.5 1500us 1.5s");
    EXPECT_EQ(lex.take_uint("n", 42), 42u);
    EXPECT_EQ(lex.take_uint("n", 255), 255u);
    EXPECT_DOUBLE_EQ(lex.take_real("x"), 2.5);
    EXPECT_EQ(lex.take_duration_ns("d"), 1'500'000);
    EXPECT_EQ(lex.take_duration_ns("d"), 1'500'000'000);
    EXPECT_TRUE(lex.at_end());
    // Each rejected token is on line 2 of its input.
    const auto line_of = [](const std::string& text, auto take) {
        try {
            util::Lexer l(text);
            take(l);
        } catch (const util::ParseError& err) {
            return err.line();
        }
        return -1;
    };
    const auto uint8 = [](util::Lexer& l) { (void)l.take_uint("n", 255); };
    const auto real = [](util::Lexer& l) { (void)l.take_real("x"); };
    const auto duration = [](util::Lexer& l) { (void)l.take_duration_ns("d"); };
    for (const char* bad : {"256", "12ms", "0x", "0x1G", "18446744073709551616", "x", ""}) {
        EXPECT_EQ(line_of(std::string("\n") + bad, uint8), 2) << bad;
    }
    for (const char* bad : {"1.2.3", "5ms", "0x1"}) {
        EXPECT_EQ(line_of(std::string("\n") + bad, real), 2) << bad;
    }
    for (const char* bad : {"10", "10 ms", "10MS", "9223372036854775808ns", "9223372037s",
                            "1.2.3ms", "0x10ms"}) {
        EXPECT_EQ(line_of(std::string("\n") + bad, duration), 2) << bad;
    }
    EXPECT_EQ(line_of("\n\"open", [](util::Lexer&) {}), 2); // unterminated string
}

TEST(StringUtil, HumanDuration) {
    EXPECT_EQ(human_duration_ns(500), "500ns");
    EXPECT_EQ(human_duration_ns(1'500), "1.500us");
    EXPECT_EQ(human_duration_ns(2'000'000), "2.000ms");
    EXPECT_EQ(human_duration_ns(3'000'000'000LL), "3.000s");
}

TEST(StringUtil, JsonEscape) {
    EXPECT_EQ(json_escape("plain"), "plain");
    EXPECT_EQ(json_escape("\"\\\n\r\t"), "\\\"\\\\\\n\\r\\t");
    EXPECT_EQ(json_escape("a\x01" "b\x1f"), "a\\u0001b\\u001f");
    // Bytes from 0x80 (UTF-8 sequences) pass through unchanged.
    EXPECT_EQ(json_escape("\xc2\xb5s \xe2\x86\x92"), "\xc2\xb5s \xe2\x86\x92");
}

// --- StableVector ----------------------------------------------------------

TEST(StableVector, EmptyContainerOwnsNoHeap) {
    util::alloc_hook::CountScope scope;
    util::StableVector<int, 4> v;
    EXPECT_TRUE(v.empty());
    EXPECT_EQ(v.size(), 0u);
    if (util::alloc_hook::interposed()) {
        EXPECT_EQ(scope.allocations(), 0u);
    }
}

TEST(StableVector, IndexBackAndSize) {
    util::StableVector<int, 4> v;
    for (int i = 0; i < 10; ++i) {
        v.emplace_back(i * i);
    }
    EXPECT_EQ(v.size(), 10u);
    EXPECT_FALSE(v.empty());
    for (std::size_t i = 0; i < v.size(); ++i) {
        EXPECT_EQ(v[i], static_cast<int>(i * i));
    }
    EXPECT_EQ(v.back(), 81);
    v.back() = -1;
    EXPECT_EQ(v[9], -1);
}

TEST(StableVector, AddressesStableAcrossChunkGrowth) {
    util::StableVector<int, 4> v;
    std::vector<int*> addresses;
    for (int i = 0; i < 33; ++i) { // crosses several chunk boundaries
        addresses.push_back(&v.emplace_back(i));
    }
    for (std::size_t i = 0; i < addresses.size(); ++i) {
        EXPECT_EQ(addresses[i], &v[i]);
        EXPECT_EQ(*addresses[i], static_cast<int>(i));
    }
}

TEST(StableVector, IterationMatchesInsertionOrder) {
    util::StableVector<int, 4> v;
    for (int i = 0; i < 9; ++i) {
        v.emplace_back(i);
    }
    int expected = 0;
    for (const int value : v) {
        EXPECT_EQ(value, expected++);
    }
    EXPECT_EQ(expected, 9);

    const auto& cv = v;
    expected = 0;
    for (const int value : cv) {
        EXPECT_EQ(value, expected++);
    }
}

namespace stable_vector_detail {
struct Pinned {
    Pinned(int& counter, int id) : counter(counter), id(id) { ++counter; }
    ~Pinned() { --counter; }
    Pinned(const Pinned&) = delete;
    Pinned& operator=(const Pinned&) = delete;
    int& counter; // reference member: the type is neither movable nor copyable
    int id;
};
} // namespace stable_vector_detail

TEST(StableVector, HoldsImmovableTypesWithReferenceMembers) {
    int live = 0;
    {
        util::StableVector<stable_vector_detail::Pinned, 2> v;
        for (int i = 0; i < 5; ++i) {
            v.emplace_back(live, i);
        }
        EXPECT_EQ(live, 5);
        EXPECT_EQ(v[3].id, 3);
        EXPECT_EQ(&v[3].counter, &live);
    }
    EXPECT_EQ(live, 0); // destructor ran for every element
}

TEST(StableVector, ClearKeepsChunksAndRefillDoesNotAllocate) {
    int live = 0;
    util::StableVector<stable_vector_detail::Pinned, 2> v;
    for (int i = 0; i < 7; ++i) {
        v.emplace_back(live, i);
    }
    v.clear();
    EXPECT_EQ(live, 0);
    EXPECT_TRUE(v.empty());
    {
        util::alloc_hook::CountScope scope;
        for (int i = 0; i < 7; ++i) {
            v.emplace_back(live, 100 + i);
        }
        if (util::alloc_hook::interposed()) {
            EXPECT_EQ(scope.allocations(), 0u); // refill reuses retained chunks
        }
    }
    EXPECT_EQ(v.size(), 7u);
    EXPECT_EQ(v[0].id, 100);
    EXPECT_EQ(v.back().id, 106);
}

} // namespace
