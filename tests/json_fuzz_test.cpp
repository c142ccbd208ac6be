// Mutational fuzz driver for the library's one JSON reader (te/util/
// json.hpp) and the serve wire built on it (ctest label `fuzz`; scripts/
// ci.sh runs it in the plain pass and under ASan/UBSan).
//
// The toolchain has no libFuzzer, so this is a deterministic in-process
// loop: a fixed seed and a fixed iteration budget over a seed corpus of
// valid wire lines and te-obs-v1 documents, plus deep-nesting and
// long-number inputs. Each iteration applies one to four byte flips,
// inserts, deletes or splices (a slice of another corpus entry) and checks
//   * json::parse never throws (a crash or UB fails the sanitized run);
//   * an accepted document, serialised and parsed again, is equal to the
//     first parse;
//   * serve::handle_line answers every input with one JSON object whose
//     "ok" is a bool (with an "error" string when false), run against a
//     server whose settings keep submit allocations small.
// A failing iteration prints its input (escaped) so it can be checked in
// as a regression case.

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "te/obs/export.hpp"
#include "te/serve/server.hpp"
#include "te/serve/wire.hpp"
#include "te/util/json.hpp"

namespace te {
namespace {

using json::Value;
using Kind = json::Value::Kind;

constexpr std::uint64_t kSeed = 0x5eed'0f'1a57'2011ULL;
constexpr int kReaderIterations = 500'000;
constexpr int kWireIterations = 100'000;

void write(const Value& v, std::string& out) {
  switch (v.kind) {
    case Kind::kNull:
      out += "null";
      return;
    case Kind::kBool:
      out += v.boolean ? "true" : "false";
      return;
    case Kind::kNumber: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", v.number);
      out += buf;
      return;
    }
    case Kind::kString:
      json::append_escaped(out, v.string);
      return;
    case Kind::kArray:
      out += '[';
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        if (i > 0) out += ',';
        write(v.array[i], out);
      }
      out += ']';
      return;
    case Kind::kObject:
      out += '{';
      for (std::size_t i = 0; i < v.object.size(); ++i) {
        if (i > 0) out += ',';
        json::append_escaped(out, v.object[i].first);
        out += ':';
        write(v.object[i].second, out);
      }
      out += '}';
      return;
  }
}

/// Structural equality; numbers compare bitwise (so 0 != -0).
bool same(const Value& a, const Value& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case Kind::kNull:
      return true;
    case Kind::kBool:
      return a.boolean == b.boolean;
    case Kind::kNumber:
      return std::bit_cast<std::uint64_t>(a.number) ==
             std::bit_cast<std::uint64_t>(b.number);
    case Kind::kString:
      return a.string == b.string;
    case Kind::kArray:
      if (a.array.size() != b.array.size()) return false;
      for (std::size_t i = 0; i < a.array.size(); ++i) {
        if (!same(a.array[i], b.array[i])) return false;
      }
      return true;
    case Kind::kObject:
      if (a.object.size() != b.object.size()) return false;
      for (std::size_t i = 0; i < a.object.size(); ++i) {
        if (a.object[i].first != b.object[i].first ||
            !same(a.object[i].second, b.object[i].second)) {
          return false;
        }
      }
      return true;
  }
  return false;
}

/// The input as a printable C string literal body, for failure messages.
std::string printable(std::string_view s) {
  std::string out;
  json::append_escaped(out, s.substr(0, 512));
  return out;
}

/// Valid protocol lines (plus one with an over-long integer seed).
std::vector<std::string> wire_corpus() {
  return {
      R"({"op":"submit","tenant":"a","seed":7,"tensors":2,"starts":2,)"
      R"("order":3,"dim":4,"tier":"precomputed"})",
      R"({"op":"submit","tenant":"t\u0001\r\u001F\"\\","seed":1,)"
      R"("tensors":1,"starts":1,"order":3,"dim":3})",
      R"( { "op" : "submit" , "tenant" : "b" , "seed" : 0 , "tensors" : 1 ,)"
      R"( "starts" : 1 , "order" : 4 , "dim" : 3 , "tier" : "unrolled" } )",
      R"({"op":"poll","ticket":0})",
      R"({"op":"wait","ticket":0})",
      R"({"op":"cancel","ticket":1})",
      R"({"op":"stats"})",
      R"({"op":"poll","ticket":-0.0e+0,"x":[true,false,null]})",
      R"({"op":"submit","tenant":"n","seed":)" + std::string(300, '1') +
          R"(,"tensors":1,"starts":1,"order":3,"dim":4})",
  };
}

/// The wire lines, te-obs-v1 documents, deep nesting and long numbers.
std::vector<std::string> full_corpus() {
  std::vector<std::string> corpus = wire_corpus();
  // te-obs-v1 documents straight from the exporter.
  obs::Snapshot snap;
  snap.counters = {{"sshopm.solve.runs", 912}, {"c\"q\\\x01", -3}};
  snap.gauges = {{"tiny", 4.9406564584124654e-324},
                 {"huge", DBL_MAX},
                 {"neg0", -0.0},
                 {"g", 0.125}};
  obs::HistogramSample h;
  h.name = "serve.request.latency_seconds";
  h.count = 3;
  h.total = 6e-6;
  h.min = 1e-6;
  h.max = 3e-6;
  h.buckets[1] = 1;
  h.buckets[2] = 2;
  snap.histograms = {h};
  snap.spans = {{"batch.run", 0, 0.5, 1.25}, {"batch.run.chunk", 1, 0.75,
                                              0.25}};
  corpus.push_back(obs::to_json(snap, {{"bench", "fuzz"}, {"k\n", "v\t"}}));
  corpus.push_back(obs::to_json(obs::Snapshot{}, {}));
  // Deep nesting around the bound, and far past it.
  const auto nest = [](int depth, std::string_view open,
                       std::string_view core, std::string_view close) {
    std::string s;
    for (int i = 0; i < depth; ++i) s += open;
    s += core;
    for (int i = 0; i < depth; ++i) s += close;
    return s;
  };
  corpus.push_back(nest(json::kMaxDepth, "[", "1", "]"));
  corpus.push_back(nest(json::kMaxDepth + 1, "{\"a\":", "{}", "}"));
  corpus.push_back(std::string(20'000, '['));
  // Long numbers: many digits, tiny and huge exponents.
  corpus.push_back(std::string(400, '7'));
  corpus.push_back("-0." + std::string(400, '0') + "1e-10");
  corpus.push_back("[1e" + std::string(40, '9') + ",2.5e-330,-1e308]");
  return corpus;
}

class Mutator {
 public:
  explicit Mutator(const std::vector<std::string>& corpus)
      : corpus_(corpus), rng_(kSeed) {}

  std::string next() {
    std::string s = corpus_[below(corpus_.size())];
    for (std::size_t round = 0, n = 1 + below(4); round < n; ++round) {
      switch (below(4)) {
        case 0:  // bit flip
          if (!s.empty()) {
            s[below(s.size())] ^= static_cast<char>(1u << below(8));
          }
          break;
        case 1:  // insert a byte, mostly from the JSON alphabet
          s.insert(s.begin() + static_cast<std::ptrdiff_t>(
                                   below(s.size() + 1)),
                   byte());
          break;
        case 2: {  // delete a short range
          if (s.empty()) break;
          const std::size_t at = below(s.size());
          s.erase(at, 1 + below(8));
          break;
        }
        default: {  // splice a slice of another corpus entry
          const std::string& other = corpus_[below(corpus_.size())];
          const std::size_t from = below(other.size());
          const std::string slice = other.substr(from, 1 + below(32));
          const std::size_t at = below(s.size() + 1);
          s.replace(at, below(8), slice);
          break;
        }
      }
    }
    return s;
  }

 private:
  std::size_t below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng_() % n);
  }

  char byte() {
    static constexpr std::string_view kAlphabet =
        "{}[]\":,\\/-+.eE0123456789tfnux \t\n\r";
    if (below(4) == 0) return static_cast<char>(rng_());
    return kAlphabet[below(kAlphabet.size())];
  }

  const std::vector<std::string>& corpus_;
  std::mt19937_64 rng_;
};

TEST(JsonFuzz, EveryAcceptedDocumentRoundTrips) {
  const auto corpus = full_corpus();
  Mutator mutator(corpus);
  int accepted = 0;
  for (int i = 0; i < kReaderIterations; ++i) {
    const std::string input = mutator.next();
    std::optional<Value> first;
    try {
      first = json::parse(input);
    } catch (const std::exception& e) {
      FAIL() << "iteration " << i << ": parse threw " << e.what() << " on "
             << printable(input);
    }
    if (!first) continue;
    ++accepted;
    std::string again;
    write(*first, again);
    const auto second = json::parse(again);
    ASSERT_TRUE(second.has_value())
        << "iteration " << i << ": re-serialised document refused: "
        << printable(again);
    ASSERT_TRUE(same(*first, *second))
        << "iteration " << i << ": round trip changed " << printable(input);
  }
  // The budget must exercise both outcomes, or the corpus has rotted.
  EXPECT_GT(accepted, kReaderIterations / 20);
  EXPECT_LT(accepted, kReaderIterations - kReaderIterations / 20);
}

TEST(JsonFuzz, HandleLineAlwaysRepliesWithOneObject) {
  // Small admission and retention windows, one shard and no pump thread:
  // accepted submits stay tiny and queued until a fuzzed wait runs them,
  // and the server is rebuilt every 64 lines so the backlog a wait can
  // drain stays short.
  serve::ServeOptions opt;
  opt.shards = 1;
  opt.scheduler.chunk_tensors = 2;
  opt.tenant_queue_capacity = 1;
  opt.completed_retention = 2;
  opt.cache_capacity = 2;
  const auto corpus = wire_corpus();
  Mutator mutator(corpus);
  std::optional<serve::Server<float>> server;
  int ok = 0;
  for (int i = 0; i < kWireIterations; ++i) {
    if (i % 64 == 0) server.emplace(opt);
    const std::string input = mutator.next();
    const std::string reply = serve::handle_line(*server, input);
    const auto doc = json::parse(reply);
    ASSERT_TRUE(doc.has_value() && doc->kind == Kind::kObject)
        << "iteration " << i << ": reply " << printable(reply) << " to "
        << printable(input);
    const Value* flag = doc->find("ok");
    ASSERT_TRUE(flag != nullptr && flag->kind == Kind::kBool)
        << "iteration " << i << ": reply " << printable(reply);
    // Replies carry the precondition's message only, never the server's
    // source layout (unless the input itself brought the text to echo).
    for (const char* leak : {"precondition failed", ".cpp:", ".hpp:"}) {
      if (input.find(leak) != std::string::npos) continue;
      ASSERT_EQ(reply.find(leak), std::string::npos)
          << "iteration " << i << ": reply " << printable(reply) << " to "
          << printable(input);
    }
    if (flag->boolean) {
      ++ok;
    } else {
      ASSERT_NE(doc->find_string("error"), nullptr)
          << "iteration " << i << ": reply " << printable(reply);
    }
  }
  EXPECT_GT(ok, 0);
}

}  // namespace
}  // namespace te
