// The MPD pair-scan kernel against its oracles on adversarial input.
//
//   - The bag bound over folded, saturating character counts
//     (simd::MpdCountBound) never exceeds the true edit distance: high
//     bytes, fold collisions ('!' and 'a' share a class), runs of more
//     than 255 equal bytes, and empty against long.
//   - The 2-gram bound over hashed, saturating 2-gram counts
//     (simd::MpdBigramBound) never exceeds the true edit distance: high
//     bytes, bucket collisions, runs past 255, lengths 0 and 1, and one
//     to three edits, where it is often tight; nor does it exceed the
//     same bound over unhashed, unsaturated 2-gram counts.
//   - EditDistancePattern equals EditDistance (clamped at bound + 1) for
//     bit-parallel patterns of 1..64 bytes and hands off to the banded
//     DP from 65 bytes on.
//   - ComputeMpdProfile equals the three-scan reference
//     (tests/reference/mpd_reference.h) field by field, with SIMD on and
//     off, at caps 20, 3 and 1, on columns past max_values, high-byte
//     columns, runs past count saturation, dethrone-heavy columns and
//     generated Enterprise columns, and at caps 1-4 and 20 on clustered
//     columns over a 2-6 letter alphabet.
//   - The EncodedColumn and Column overloads of ExtractSpellingCandidate
//     agree.
//
// The older MPD property tests (metric_functions_test.cc) use short
// alphabetic values that never reach the max_values cap.

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "corpus/generator.h"
#include "corpus/token_index.h"
#include "eval/injection.h"
#include "learn/candidates.h"
#include "learn/table_columns.h"
#include "metrics/edit_distance.h"
#include "metrics/metric_functions.h"
#include "reference/mpd_reference.h"
#include "util/random.h"
#include "util/simd.h"

namespace unidetect {
namespace {

// The counts the pair scan keeps per value: byte c lands in class c & 63,
// saturating at 255.
std::vector<uint8_t> Counts(const std::string& s) {
  std::vector<uint8_t> counts(simd::kMpdCountClasses, 0);
  for (const char c : s) {
    uint8_t& slot = counts[static_cast<unsigned char>(c) & 63];
    if (slot != 255) ++slot;
  }
  return counts;
}

size_t BagBound(const std::string& a, const std::string& b) {
  const int64_t bound = simd::MpdCountBound(
      Counts(a).data(), Counts(b).data(), static_cast<int32_t>(a.size()),
      static_cast<int32_t>(b.size()));
  EXPECT_GE(bound, 0);
  return static_cast<size_t>(bound);
}

// A tiny alphabet (near collisions), high bytes, and the fold partners
// of the alphabet ('a' ^ 64 == '!').
constexpr char kAdversarialBytes[] = {'a', 'b', 'c', '!', '"', '#',
                                      '\x80', '\xc3', '\xe9', '\xff', ' ', 'A'};
constexpr std::string_view kAdversarial(kAdversarialBytes,
                                        sizeof(kAdversarialBytes));

// `length` bytes drawn from `bytes`.
std::string AdversarialString(Rng& rng, size_t length,
                              std::string_view bytes = kAdversarial) {
  std::string s;
  for (size_t i = 0; i < length; ++i) {
    s.push_back(bytes[rng.NextBounded(bytes.size())]);
  }
  return s;
}

// Applies `edits` random unit edits drawn from `bytes`.
std::string Mutate(Rng& rng, std::string s, size_t edits,
                   std::string_view bytes = kAdversarial) {
  for (size_t e = 0; e < edits; ++e) {
    const std::string c = AdversarialString(rng, 1, bytes);
    const uint64_t kind = s.empty() ? 0 : rng.NextBounded(3);
    const size_t at = s.empty() ? 0 : rng.NextBounded(s.size());
    if (kind == 0) {
      s.insert(at, c);
    } else if (kind == 1) {
      s.erase(at, 1);
    } else {
      s[at] = c[0];
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// Bag bound.

TEST(MpdKernelBoundTest, ExactOnUnfoldedUnsaturatedCounts) {
  // kitten/sitting: excess {k, e} on one side, {s, i, g} on the other,
  // so the bound is max(2, 3) = 3, the true distance.
  EXPECT_EQ(BagBound("kitten", "sitting"), 3u);
  EXPECT_EQ(BagBound("sitting", "kitten"), 3u);
  EXPECT_EQ(BagBound("abc", "abc"), 0u);
  EXPECT_EQ(BagBound("abc", "cab"), 0u);  // anagrams: the bag is blind
  EXPECT_EQ(EditDistance("abc", "cab"), 2u);
}

TEST(MpdKernelBoundTest, FoldAndSaturationOnlyWeaken) {
  // '!' (0x21) and 'a' (0x61) share class 33: the folded bag cannot
  // tell them apart.
  EXPECT_EQ(BagBound("!!!", "aaa"), 0u);
  EXPECT_EQ(EditDistance("!!!", "aaa"), 3u);
  // High bytes fold onto low classes too: 0xe9 & 63 == 'i' & 63.
  EXPECT_EQ(BagBound("caf\xe9", "cafi"), 0u);
  // 300 'x' against 256 'x': both counts saturate at 255, only the
  // length gap still counts.
  EXPECT_EQ(BagBound(std::string(300, 'x'), std::string(256, 'x')), 22u);
  EXPECT_EQ(EditDistance(std::string(300, 'x'), std::string(256, 'x')), 44u);
  // Empty against long: SAD = gap = length.
  EXPECT_EQ(BagBound("", std::string(90, 'q')), 90u);
  EXPECT_EQ(BagBound("", ""), 0u);
}

TEST(MpdKernelBoundTest, NeverExceedsEditDistance) {
  Rng rng(0xBA6);
  for (int trial = 0; trial < 3000; ++trial) {
    std::string a;
    std::string b;
    switch (trial % 4) {
      case 0:  // random adversarial strings of unrelated lengths
        a = AdversarialString(rng, rng.NextBounded(24));
        b = AdversarialString(rng, rng.NextBounded(24));
        break;
      case 1:  // near neighbours
        a = AdversarialString(rng, 1 + rng.NextBounded(30));
        b = Mutate(rng, a, 1 + rng.NextBounded(4));
        break;
      case 2: {  // runs past the 255 saturation point
        a = std::string(250 + rng.NextBounded(60), 'z') +
            AdversarialString(rng, rng.NextBounded(5));
        b = Mutate(rng, a, rng.NextBounded(40));
        break;
      }
      default:  // empty or one byte against long
        a = AdversarialString(rng, rng.NextBounded(2));
        b = AdversarialString(rng, 40 + rng.NextBounded(60));
        break;
    }
    ASSERT_LE(BagBound(a, b), EditDistance(a, b))
        << "trial=" << trial << " |a|=" << a.size() << " |b|=" << b.size();
  }
}

// ---------------------------------------------------------------------------
// 2-gram bound.

// The 2-gram counts the pair scan keeps per value.
std::vector<uint8_t> Grams(const std::string& s) {
  std::vector<uint8_t> grams(simd::kMpdCountClasses, 0);
  simd::MpdBigramCounts(s.data(), s.size(), grams.data());
  return grams;
}

size_t BigramBound(const std::string& a, const std::string& b) {
  const int64_t bound =
      simd::MpdBigramBound(Grams(a).data(), Grams(b).data());
  EXPECT_GE(bound, 0);
  return static_cast<size_t>(bound);
}

size_t BigramClass(char a, char b) {
  return simd::MpdBigramClass(static_cast<unsigned char>(a),
                              static_cast<unsigned char>(b));
}

// The same bound without buckets or saturation: ceil(L1 / 4) over the
// exact 2-gram multisets of the framed values "\x00" s "\x01".
size_t UnhashedBigramBound(const std::string& a, const std::string& b) {
  std::map<std::pair<unsigned char, unsigned char>, int64_t> diff;
  const auto add = [&](const std::string& s, int64_t sign) {
    const std::string framed = std::string(1, '\x00') + s + '\x01';
    for (size_t k = 1; k < framed.size(); ++k) {
      diff[{static_cast<unsigned char>(framed[k - 1]),
            static_cast<unsigned char>(framed[k])}] += sign;
    }
  };
  add(a, 1);
  add(b, -1);
  int64_t l1 = 0;
  for (const auto& [gram, d] : diff) l1 += d < 0 ? -d : d;
  return static_cast<size_t>((l1 + 3) / 4);
}

TEST(MpdKernelBoundTest, BigramBoundIsTightOnOneSubstitution) {
  // "abcde" -> "abxde" removes bc and cd and adds bx and xd: four
  // counts move, the most one edit can move, so the bound is exactly
  // ceil(4 / 4) = 1 when the four 2-grams land in distinct buckets.
  ASSERT_NE(BigramClass('b', 'c'), BigramClass('c', 'd'));
  ASSERT_NE(BigramClass('b', 'x'), BigramClass('x', 'd'));
  for (const size_t out : {BigramClass('b', 'c'), BigramClass('c', 'd')}) {
    for (const size_t in : {BigramClass('b', 'x'), BigramClass('x', 'd')}) {
      ASSERT_NE(out, in);
    }
  }
  EXPECT_EQ(BigramBound("abcde", "abxde"), 1u);
  EXPECT_EQ(EditDistance("abcde", "abxde"), 1u);
  // An insertion moves three counts: ceil(3 / 4) = 1.
  EXPECT_EQ(BigramBound("abcde", "abcxde"), 1u);
  EXPECT_EQ(BigramBound("abcde", "abcde"), 0u);
  // Anagrams, which the bag bound cannot tell apart. The frame tells
  // the first and last bytes apart (2 + 2), and ab and ba swap counts
  // (1 + 1): SAD 6, bound 2, the true distance.
  EXPECT_EQ(BigramBound("abab", "baba"), 2u);
  EXPECT_EQ(EditDistance("abab", "baba"), 2u);
  EXPECT_EQ(BagBound("abab", "baba"), 0u);
}

TEST(MpdKernelBoundTest, BigramBoundAtLengthsZeroAndOne) {
  // The frame gives every value 2-grams, even the empty one.
  EXPECT_EQ(BigramBound("", ""), 0u);
  EXPECT_EQ(BigramBound("", "q"), 1u);
  EXPECT_EQ(BigramBound("a", "b"), 1u);
  EXPECT_EQ(BigramBound("a", "a"), 0u);
  EXPECT_EQ(BigramBound("\xff", "\x80"), 1u);
  EXPECT_EQ(BigramBound("", "qq"), 1u);
  // The frame bytes are ordinary bytes to the hash, and a value may hold
  // them: still a lower bound.
  EXPECT_LE(BigramBound(std::string(1, '\x00'), ""), 1u);
  EXPECT_LE(BigramBound(std::string(1, '\x01'), std::string(1, '\x00')),
            1u);
  for (const std::string& longer :
       {std::string(9, 'q'), std::string(90, 'q'), std::string("qa")}) {
    for (const std::string& shorter : {std::string(), std::string("a")}) {
      EXPECT_LE(BigramBound(shorter, longer), EditDistance(shorter, longer))
          << shorter << " vs " << longer;
    }
  }
}

TEST(MpdKernelBoundTest, BigramCollisionsAndSaturationOnlyWeaken) {
  // A 2-gram that shares ab's bucket: "ab" and "cd" then differ in only
  // the frame's 2-grams, and the bound falls below the unhashed one.
  const size_t target = BigramClass('a', 'b');
  int other = -1;
  for (int x = 0; x < 256 * 256 && other < 0; ++x) {
    const char c = static_cast<char>(x >> 8);
    const char d = static_cast<char>(x & 255);
    if (c != 'a' && d != 'b' && BigramClass(c, d) == target &&
        BigramClass('\x00', c) != BigramClass('\x00', 'a')) {
      other = x;
    }
  }
  ASSERT_GE(other, 0);
  const std::string collide = {static_cast<char>(other >> 8),
                               static_cast<char>(other & 255)};
  EXPECT_EQ(UnhashedBigramBound("ab", collide), 2u);
  EXPECT_LT(BigramBound("ab", collide), 2u);
  EXPECT_EQ(EditDistance("ab", collide), 2u);
  // High bytes hash like any other byte.
  EXPECT_EQ(BigramBound("caf\xe9s", "cafes"),
            UnhashedBigramBound("caf\xe9s", "cafes"));
  // 300 'x' against 256 'x': 299 and 255 xx 2-grams both saturate.
  EXPECT_EQ(BigramBound(std::string(300, 'x'), std::string(256, 'x')), 0u);
  EXPECT_EQ(UnhashedBigramBound(std::string(300, 'x'), std::string(256, 'x')),
            11u);
  // Below saturation the count gap shows: 254 against 244 xx 2-grams.
  EXPECT_EQ(BigramBound(std::string(255, 'x'), std::string(245, 'x')), 3u);
}

TEST(MpdKernelBoundTest, BigramBoundNeverExceedsEditDistance) {
  Rng rng(0xB16);
  // Distinct letters make most 2-grams unique, so one edit often moves
  // four counts and the bound is tight.
  constexpr std::string_view kLetters = "abcdefghijklmnopqrstuvwxyz";
  for (int trial = 0; trial < 4000; ++trial) {
    std::string a;
    std::string b;
    switch (trial % 5) {
      case 0:  // random adversarial strings of unrelated lengths
        a = AdversarialString(rng, rng.NextBounded(24));
        b = AdversarialString(rng, rng.NextBounded(24));
        break;
      case 1:  // near neighbours over the high-byte alphabet
        a = AdversarialString(rng, 1 + rng.NextBounded(30));
        b = Mutate(rng, a, 1 + rng.NextBounded(4));
        break;
      case 2:  // runs past the 255 saturation point
        a = std::string(250 + rng.NextBounded(60), 'z') +
            AdversarialString(rng, rng.NextBounded(5));
        b = Mutate(rng, a, rng.NextBounded(40));
        break;
      case 3:  // empty or one byte against anything
        a = AdversarialString(rng, rng.NextBounded(2));
        b = AdversarialString(rng, rng.NextBounded(60));
        break;
      default:  // one to three edits on a wide alphabet
        a = AdversarialString(rng, 2 + rng.NextBounded(20), kLetters);
        b = Mutate(rng, a, 1 + rng.NextBounded(3), kLetters);
        break;
    }
    const size_t unhashed = UnhashedBigramBound(a, b);
    ASSERT_LE(BigramBound(a, b), unhashed)
        << "trial=" << trial << " |a|=" << a.size() << " |b|=" << b.size();
    ASSERT_LE(unhashed, EditDistance(a, b))
        << "trial=" << trial << " |a|=" << a.size() << " |b|=" << b.size();
  }
}

// ---------------------------------------------------------------------------
// Per-value Myers pattern.

void ExpectPatternMatches(EditDistancePattern* pattern,
                          const std::string& text, size_t full,
                          EditDistanceScratch* scratch,
                          const std::string& context) {
  for (size_t bound : {size_t{0}, size_t{1}, size_t{3}, size_t{20},
                       size_t{1000}}) {
    const size_t want = std::min(full, bound + 1);
    ASSERT_EQ(pattern->BoundedDistance(text, bound, scratch), want)
        << context << " bound=" << bound;
  }
}

TEST(MpdKernelPatternTest, BitParallelMatchesEditDistanceForLengths1To64) {
  Rng rng(0x3E45);
  EditDistancePattern pattern;  // reused: Assign must clear the old table
  EditDistanceScratch scratch;
  for (size_t len = 1; len <= 64; ++len) {
    const std::string p = AdversarialString(rng, len);
    pattern.Assign(p);
    ASSERT_TRUE(pattern.bit_parallel()) << "len=" << len;
    for (int trial = 0; trial < 12; ++trial) {
      const std::string text =
          trial % 3 == 0 ? AdversarialString(rng, rng.NextBounded(80))
                         : Mutate(rng, p, rng.NextBounded(6));
      ExpectPatternMatches(&pattern, text, EditDistance(p, text), &scratch,
                           "len=" + std::to_string(len));
    }
  }
}

TEST(MpdKernelPatternTest, HandsOffToBandedPathFrom65Bytes) {
  Rng rng(0x65);
  EditDistancePattern pattern;
  EditDistanceScratch scratch;
  for (size_t len : {size_t{65}, size_t{66}, size_t{100}, size_t{130}}) {
    const std::string p = AdversarialString(rng, len);
    pattern.Assign(p);
    EXPECT_FALSE(pattern.bit_parallel()) << "len=" << len;
    for (int trial = 0; trial < 6; ++trial) {
      const std::string text = Mutate(rng, p, rng.NextBounded(8));
      ExpectPatternMatches(&pattern, text, EditDistance(p, text), &scratch,
                           "len=" + std::to_string(len));
    }
  }
  // Back to a short pattern after a long one: the table is rebuilt.
  pattern.Assign("abc");
  EXPECT_TRUE(pattern.bit_parallel());
  EXPECT_EQ(pattern.BoundedDistance("abd", 5, &scratch), 1u);
  pattern.Assign("");
  EXPECT_FALSE(pattern.bit_parallel());
  EXPECT_EQ(pattern.BoundedDistance("abcd", 5, &scratch), 4u);
}

// ---------------------------------------------------------------------------
// ComputeMpdProfile against the three-scan reference.

void ExpectMatchesReference(const Column& column, const std::string& context,
                            std::initializer_list<size_t> caps = {20, 3, 1}) {
  for (size_t cap : caps) {
    MpdOptions options;
    options.distance_cap = cap;
    const MpdProfile ref = ComputeMpdProfileReference(column, options);
    for (bool enabled : {true, false}) {
      simd::SetSimdEnabled(enabled);
      EXPECT_EQ(MpdProfileDiff(ComputeMpdProfile(column, options), ref), "")
          << context << " cap=" << cap << " simd=" << enabled;
      EXPECT_EQ(MpdProfileDiff(
                    ComputeMpdProfile(column, EncodeColumn(column), options),
                    ref),
                "")
          << context << " (codes) cap=" << cap << " simd=" << enabled;
    }
    simd::SetSimdEnabled(true);
  }
}

TEST(MpdKernelPropertyTest, ColumnsPastMaxValues) {
  // More than max_values (400) distinct values, with blanks and
  // trim-equal repeats mixed in: only the first 400 distinct values by
  // first occurrence take part, however the cells are spelled. The
  // 401st distinct value is one edit from the first, so a kernel that
  // read past the cap would report that pair.
  Rng rng(0x400);
  for (size_t distinct : {size_t{401}, size_t{450}, size_t{600}}) {
    std::vector<std::string> values;
    while (values.size() < distinct) {
      std::string v = "item " + rng.AlphaString(4 + rng.NextBounded(6));
      if (values.size() == 400) v = values[0] + "q";
      if (std::find(values.begin(), values.end(), v) == values.end()) {
        values.push_back(std::move(v));
      }
    }
    std::vector<std::string> cells;
    for (const std::string& v : values) {
      cells.push_back(v);
      const uint64_t kind = rng.NextBounded(5);
      if (kind == 0) cells.push_back(rng.NextBounded(2) == 0 ? "" : "   ");
      if (kind == 1) {
        cells.push_back(" " + cells[rng.NextBounded(cells.size())] + " ");
      }
    }
    const Column column("c", cells);
    ASSERT_EQ(EncodeColumn(column).distinct, distinct);
    ExpectMatchesReference(column, "distinct=" + std::to_string(distinct));
    const MpdProfile profile = ComputeMpdProfile(column);
    EXPECT_NE(profile.value_b, values[400]) << "distinct=" << distinct;
  }
}

TEST(MpdKernelPropertyTest, RunsPastCountSaturation) {
  // Values holding 250-300 copies of one byte: their counts saturate at
  // 255, and a wrapping count would overstate the bag bound and prune
  // the closest pair.
  Rng rng(0x255);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<std::string> cells;
    for (size_t len = 250; len <= 300; len += 1 + rng.NextBounded(4)) {
      std::string v(len, 'x');
      if (rng.NextBounded(3) == 0) v[rng.NextBounded(len)] = '8';  // 'x' & 63
      cells.push_back(std::move(v));
    }
    cells.push_back(AdversarialString(rng, 12));
    rng.Shuffle(cells);
    ExpectMatchesReference(Column("c", cells),
                           "saturation trial=" + std::to_string(trial));
  }
}

TEST(MpdKernelPropertyTest, HighByteColumns) {
  Rng rng(0x80);
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<std::string> cells;
    const size_t n = 3 + rng.NextBounded(140);
    const std::string stem = AdversarialString(rng, 2 + rng.NextBounded(70));
    for (size_t i = 0; i < n; ++i) {
      cells.push_back(rng.NextBounded(3) == 0
                          ? AdversarialString(rng, 1 + rng.NextBounded(90))
                          : Mutate(rng, stem, 1 + rng.NextBounded(5)));
    }
    ExpectMatchesReference(Column("c", cells),
                           "high-byte trial=" + std::to_string(trial));
  }
}

TEST(MpdKernelPropertyTest, DethroneHeavyColumns) {
  // Each value is closer to its predecessor than any earlier pair, in
  // scan (length) order too, so the best pair is dethroned again and
  // again, often mid-chunk.
  Rng rng(0xDE7);
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<std::string> cells;
    std::string value = AdversarialString(rng, 8);
    const size_t n = 70 + rng.NextBounded(200);
    for (size_t i = 0; i < n; ++i) {
      cells.push_back(value);
      value = Mutate(rng, value + AdversarialString(rng, 1),
                     1 + rng.NextBounded(2));
    }
    std::reverse(cells.begin(), cells.end());
    ExpectMatchesReference(Column("c", cells),
                           "dethrone trial=" + std::to_string(trial));
  }
}

TEST(MpdKernelPropertyTest, SmallAlphabetClusteredColumns) {
  // One to four short stems over a 2-6 letter alphabet, each value 0-4
  // random edits from one of them, 3-150 distinct values (skewed toward
  // few). Many pairs tie at small distances, and in the small columns
  // the disjoint minimum often sits several edits above the best pair,
  // so the exclusion minima hinge on exactly which pairs the scan may
  // skip below the disjoint minimum (need_of in metric_functions.cc).
  Rng rng(0xC1A5);
  for (int trial = 0; trial < 600; ++trial) {
    const std::string_view alphabet =
        std::string_view("abcdef").substr(0, 2 + rng.NextBounded(5));
    std::vector<std::string> stems(1 + rng.NextBounded(4));
    for (std::string& stem : stems) {
      stem = AdversarialString(rng, 1 + rng.NextBounded(6), alphabet);
    }
    const size_t want = 3 + rng.NextBounded(1 + rng.NextBounded(148));
    std::vector<std::string> distinct;
    std::vector<std::string> cells;
    for (int attempt = 0; attempt < 4000 && distinct.size() < want;
         ++attempt) {
      const std::string& stem = stems[rng.NextBounded(stems.size())];
      std::string v = Mutate(rng, stem, rng.NextBounded(5), alphabet);
      if (v.empty()) continue;
      if (std::find(distinct.begin(), distinct.end(), v) == distinct.end()) {
        distinct.push_back(v);
      }
      cells.push_back(std::move(v));
    }
    if (distinct.size() < 3) continue;
    ExpectMatchesReference(Column("c", cells),
                           "clustered trial=" + std::to_string(trial),
                           {1, 2, 3, 4, 20});
  }
}

AnnotatedCorpus EnterpriseWithErrors(size_t tables, uint64_t seed) {
  AnnotatedCorpus corpus = GenerateCorpus(EnterpriseCorpusSpec(tables, seed));
  InjectionSpec injection;
  injection.seed = seed + 1;
  InjectErrors(&corpus, injection);
  return corpus;
}

TEST(MpdKernelPropertyTest, GeneratedEnterpriseColumns) {
  const AnnotatedCorpus corpus = EnterpriseWithErrors(4, 0xE7E);
  size_t valid = 0;
  for (const Table& table : corpus.corpus.tables) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      ExpectMatchesReference(table.column(c),
                             table.name() + " col " + std::to_string(c));
      if (ComputeMpdProfile(table.column(c)).valid) ++valid;
    }
  }
  EXPECT_GE(valid, 8u);
}

// ---------------------------------------------------------------------------
// Extractor overloads.

TEST(MpdKernelPropertyTest, EncodedAndColumnExtractorsAgree) {
  const AnnotatedCorpus corpus = EnterpriseWithErrors(6, 0x5E1);
  const TokenIndex index;
  const TokenPrevalence prevalence(index);
  ModelOptions options;
  size_t valid = 0;
  for (const Table& table : corpus.corpus.tables) {
    const TableColumns columns(table, prevalence);
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const SpellingCandidate encoded =
          ExtractSpellingCandidate(columns.column(c), options);
      const SpellingCandidate plain =
          ExtractSpellingCandidate(table.column(c), options);
      const std::string context = table.name() + " col " + std::to_string(c);
      ASSERT_EQ(encoded.valid, plain.valid) << context;
      EXPECT_EQ(MpdProfileDiff(encoded.profile, plain.profile), "") << context;
      if (!encoded.valid) continue;
      ++valid;
      EXPECT_EQ(encoded.key.packed, plain.key.packed) << context;
      EXPECT_EQ(encoded.theta1, plain.theta1) << context;
      EXPECT_EQ(encoded.theta2, plain.theta2) << context;
    }
  }
  EXPECT_GE(valid, 8u);
}

}  // namespace
}  // namespace unidetect
