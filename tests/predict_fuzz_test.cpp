/**
 * @file
 * Corpus-driven fuzz/property harness for the untrusted input path:
 * random and mutated bytes, near-miss assembler, and hostile query
 * strings through isa::assemble, the HTTP head parsers, and full
 * /predict request handling.
 *
 * Properties checked on every input:
 *  - no crash, hang, or UB (the suite runs under ASan+UBSan in CI);
 *  - the parsers throw FatalError — never anything else — on
 *    malformed input;
 *  - every /predict response is 200 or a structured 4xx JSON error
 *    body; a malformed kernel can never surface as a 5xx;
 *  - the zero-parse head scanner (scanFastGet) never disagrees with
 *    the full parser on a head it accepts, and the inline pipeline
 *    (tryServeInline) answers byte-identically to handle().
 *
 * Deterministic by construction (seeded SplitMix64, fixed corpus).
 * UOPS_PREDICT_FUZZ_ITERS scales the iteration count: the default
 * keeps local ctest fast; CI's sanitizer job raises it.
 */

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "db/catalog.h"
#include "server/http.h"
#include "server/service.h"
#include "support/rng.h"
#include "test_util.h"

namespace uops::test {
namespace {

using server::HttpRequest;
using server::HttpResponse;

int
iterations()
{
    if (const char *env = std::getenv("UOPS_PREDICT_FUZZ_ITERS"))
        return std::max(1, std::atoi(env));
    return 300;
}

/** Seed assembler lines the mutator starts from. */
const std::vector<std::string> &
seedLines()
{
    static const std::vector<std::string> lines = {
        "ADD RAX, RBX",
        "IMUL RCX, RAX",
        "MOV RAX, [RBX+8]",
        "MOV [RBX+64], RAX",
        "DIV EBX",
        "CMP RAX, 5",
        "JNZ 0",
        "XOR EAX, EAX",
        "MOVAPS XMM0, XMM1",
        "ADD RAX, 127",
        "NOP",
    };
    return lines;
}

/** Near-miss / hostile fragments spliced in by the mutator. */
const std::vector<std::string> &
hostileTokens()
{
    static const std::vector<std::string> tokens = {
        "[",       "]",     "+",        ",",    ",,",
        "[RAX",    "RAX]",  "[+]",      "#",    ";",
        "BOGUS",   "ADD",   "RAX",      "XMM9", "R16",
        "-1",      "0x10",  "99999999999999999999",
        "9999999", "-9999999",
        "ADD RAX", "ADD RAX,", "ADD , RBX",
        "\t",      "\r",    "\x01",     "\xff", "\0",
    };
    return tokens;
}

std::string
randomBytes(Rng &rng, size_t max_len)
{
    std::string out;
    size_t len = rng.nextBelow(max_len + 1);
    out.reserve(len);
    for (size_t i = 0; i < len; ++i)
        out += static_cast<char>(rng.nextBelow(256));
    return out;
}

/** One mutated listing: seed lines joined, then corrupted. */
std::string
mutatedListing(Rng &rng)
{
    const auto &seeds = seedLines();
    std::string listing;
    size_t lines = 1 + rng.nextBelow(4);
    for (size_t i = 0; i < lines; ++i) {
        if (i > 0)
            listing += rng.nextBool(0.5) ? '\n' : ';';
        listing += seeds[rng.nextBelow(seeds.size())];
    }
    size_t mutations = rng.nextBelow(5);
    for (size_t i = 0; i < mutations; ++i) {
        switch (rng.nextBelow(5)) {
          case 0:   // flip one byte
            if (!listing.empty())
                listing[rng.nextBelow(listing.size())] =
                    static_cast<char>(rng.nextBelow(256));
            break;
          case 1: { // splice a hostile token
            const auto &tokens = hostileTokens();
            listing.insert(rng.nextBelow(listing.size() + 1),
                           tokens[rng.nextBelow(tokens.size())]);
            break;
          }
          case 2:   // truncate
            listing.resize(rng.nextBelow(listing.size() + 1));
            break;
          case 3: { // duplicate a chunk
            if (!listing.empty()) {
                size_t from = rng.nextBelow(listing.size());
                size_t len = rng.nextBelow(listing.size() - from + 1);
                listing.insert(rng.nextBelow(listing.size() + 1),
                               listing.substr(from, len));
            }
            break;
          }
          default:  // delete one byte
            if (!listing.empty())
                listing.erase(rng.nextBelow(listing.size()), 1);
            break;
        }
    }
    return listing;
}

/** Request-head building blocks. Targets and header lines may
 *  contain the placeholders {NAME} (a catalog variant), {ESCAPED}
 *  (the same name with its first byte percent-escaped) and {ETAG}
 *  (the serving generation's tag), filled in by instantiate(). */
struct HeadCorpus
{
    std::vector<std::string> request_lines;
    std::vector<std::string> headers;
    std::vector<std::string> seeds;  ///< complete heads
};

const HeadCorpus &
headCorpus()
{
    static const HeadCorpus corpus = [] {
        HeadCorpus c;
        const std::vector<std::string> targets = {
            "/uarchs",
            "/u%61rchs",                       // escaped route
            "/instr/{NAME}",
            "/instr/{NAME}?uarch=SKL",
            "/instr/{NAME}?uarch=NHM",         // not in the catalog
            "/instr/{NAME}?uarch=S%4BL",       // escaped parameter
            "/instr/{NAME}?uarch=bogus",
            "/instr/{NAME}?uarch=SKL&uarch=HSW",
            "/instr/{ESCAPED}",                // escaped name
            "/instr/A+B",
            "/instr/NO_SUCH",
            "/instr",
            "/instr/",
            "/instr/%zz",                      // malformed escape
            "/instr/%4",
            "/search?uarch=SKL&mnemonic=ADD&limit=3",
            "/search?tp_min=abc",
            "/predict?uarch=SKL&asm=ADD%20RAX,%20RBX",
            "/predict?uarch=SKL&asm=ADD%20RAX,%20RBX&debug=verbose",
            "/healthz",
            "/nope",
        };
        const std::vector<std::string> forms = {
            "GET {T} HTTP/1.1", "GET {T} HTTP/1.0", "POST {T} HTTP/1.1",
            "HEAD {T} HTTP/1.1", "GET  {T} HTTP/1.1", "GET {T} HTTP/1.1 ",
        };
        for (const std::string &form : forms)
            for (const std::string &target : targets) {
                std::string line = form;
                line.replace(line.find("{T}"), 3, target);
                c.request_lines.push_back(line);
            }
        c.headers = {
            "Host: x",
            "If-None-Match: \"{ETAG}\"",
            "If-None-Match: W/\"{ETAG}\", \"other\"",
            "If-None-Match: *",
            "If-None-Match: \"other\"",
            "If-None-Match:",
            "If-None-Match : \"{ETAG}\"",
            "if-none-match:\t\"{ETAG}\" ",
            "X-Request-Id: fuzz-head-1",
            "X-Request-Id: not acceptable",
            "X-Request-Id : fuzz-head-2",
            "Connection: close",
            "Connection: keep-alive",
            "Connection: Keep-Alive, TE",
            "Connection: TE, close",
            "Connection: TE",
            "Transfer-Encoding: chunked",
            "Content-Length: 0",
            "Content-Length : 5",
            "Content-Length\t: 5",
            "Expect: 100-continue",
            " Host: folded",
            "NoColonHere",
        };
        c.seeds = {
            // Whitespace between a field-name and its colon.
            "GET /instr/{NAME} HTTP/1.1\r\nContent-Length : 5\r\n\r\n",
            "GET /instr/{NAME} HTTP/1.1\r\n"
            "If-None-Match : \"{ETAG}\"\r\n\r\n",
            "GET /uarchs HTTP/1.1\r\nHost\t: x\r\n\r\n",
            // Duplicate If-None-Match / X-Request-Id.
            "GET /uarchs HTTP/1.1\r\nIf-None-Match:\r\n"
            "If-None-Match: \"{ETAG}\"\r\n\r\n",
            "GET /uarchs HTTP/1.1\r\nIf-None-Match: \"other\"\r\n"
            "If-None-Match: \"{ETAG}\"\r\n\r\n",
            "GET /uarchs HTTP/1.1\r\nX-Request-Id: a\r\n"
            "X-Request-Id: b\r\n\r\n",
            // HTTP/1.0.
            "GET /instr/{NAME} HTTP/1.0\r\n\r\n",
            "GET /instr/{NAME} HTTP/1.0\r\n"
            "Connection: keep-alive\r\n\r\n",
            // Connection token lists and duplicates.
            "GET /uarchs HTTP/1.1\r\nConnection: TE, close\r\n\r\n",
            "GET /uarchs HTTP/1.1\r\nConnection: keep-alive\r\n"
            "Connection: close\r\n\r\n",
            // Transfer-Encoding.
            "GET /instr/{NAME} HTTP/1.1\r\n"
            "Transfer-Encoding: chunked\r\n\r\n",
            // Percent-escaped /instr names.
            "GET /instr/{ESCAPED} HTTP/1.1\r\n\r\n",
            "GET /instr/{NAME}?uarch=S%4BL HTTP/1.1\r\n"
            "If-None-Match: \"{ETAG}\"\r\n\r\n",
            "GET /instr/%zz HTTP/1.1\r\n\r\n",
            "GET /instr/A\tB HTTP/1.1\r\n\r\n",
        };
        return c;
    }();
    return corpus;
}

/** One request head off the corpus: a seed, or a request line plus
 *  a few header lines; then, sometimes, byte-level corruption. */
std::string
requestHead(Rng &rng)
{
    const HeadCorpus &corpus = headCorpus();
    std::string head;
    if (rng.nextBool(0.2)) {
        head = corpus.seeds[rng.nextBelow(corpus.seeds.size())];
    } else {
        head = corpus.request_lines[rng.nextBelow(
                   corpus.request_lines.size())] +
               "\r\n";
        size_t lines = rng.nextBelow(5);
        for (size_t i = 0; i < lines; ++i)
            head += corpus.headers[rng.nextBelow(
                        corpus.headers.size())] +
                    "\r\n";
        head += "\r\n";
    }
    size_t mutations = rng.nextBool(0.7) ? 0 : 1 + rng.nextBelow(3);
    for (size_t i = 0; i < mutations && !head.empty(); ++i) {
        size_t at = rng.nextBelow(head.size());
        switch (rng.nextBelow(3)) {
          case 0:
            head[at] = static_cast<char>(rng.nextBelow(256));
            break;
          case 1:
            head.insert(at, 1, " \t:%,\r\n"[rng.nextBelow(7)]);
            break;
          default:
            head.erase(at, 1);
            break;
        }
    }
    return head;
}

/** Fill the corpus placeholders. */
std::string
instantiate(std::string text, const std::string &name,
            const std::string &etag)
{
    auto fill = [&](const std::string &key, const std::string &value) {
        for (size_t at = text.find(key); at != std::string::npos;
             at = text.find(key, at + value.size()))
            text.replace(at, key.size(), value);
    };
    char escaped[4];
    std::snprintf(escaped, sizeof escaped, "%%%02X",
                  static_cast<unsigned char>(name.front()));
    fill("{ESCAPED}", escaped + name.substr(1));
    fill("{NAME}", name);
    fill("{ETAG}", etag);
    return text;
}

/** A small, cheap catalog so the service has a real generation. */
std::shared_ptr<const db::DatabaseCatalog>
fuzzCatalog()
{
    static const auto catalog = [] {
        core::BatchOptions options;
        options.num_threads = 2;
        options.characterizer.filter =
            [](const isa::InstrVariant &v) {
                return v.mnemonic() == "ADD" || v.mnemonic() == "XOR";
            };
        return db::runCatalogSweep(defaultDb(),
                                   {uarch::UArch::Skylake}, options,
                                   nullptr);
    }();
    return catalog;
}

std::unique_ptr<server::QueryService>
fuzzService()
{
    server::QueryService::Options options;
    // Tight admission keeps the worst mutated-but-valid kernel cheap.
    options.admission.max_instructions = 16;
    options.admission.max_listing_bytes = 4096;
    options.engine.num_threads = 2;
    options.engine.predict.cycle_budget = 2'000'000;
    return std::make_unique<server::QueryService>(
        fuzzCatalog(), defaultDb(), options);
}

/** Every /predict response: success or structured 4xx, never 5xx. */
void
checkPredictResponse(const HttpResponse &response,
                     const std::string &input)
{
    ASSERT_TRUE(response.status == 200 ||
                (response.status >= 400 && response.status < 500))
        << "status " << response.status << " for input: " << input
        << "\nbody: " << response.body;
    ASSERT_FALSE(response.body.empty()) << input;
    ASSERT_EQ(response.body.front(), '{') << response.body;
    if (response.status >= 400) {
        EXPECT_NE(response.body.find("\"error\":"),
                  std::string::npos)
            << response.body;
        EXPECT_NE(response.body.find("\"status\":"),
                  std::string::npos)
            << response.body;
    }
}

// ---------------------------------------------------------------------
// isa::assemble on hostile input: FatalError or a kernel, nothing
// else.
// ---------------------------------------------------------------------

TEST(PredictFuzz, AssemblerThrowsOnlyFatalErrors)
{
    Rng rng(0xF0220001ULL);
    int iters = iterations();
    for (int i = 0; i < iters; ++i) {
        std::string listing = (i % 3 == 0)
                                  ? randomBytes(rng, 256)
                                  : mutatedListing(rng);
        try {
            (void)isa::assemble(defaultDb(), listing);
        } catch (const FatalError &) {
            // Expected for malformed input.
        }
        // Any other exception type escapes and fails the test.
    }
}

// ---------------------------------------------------------------------
// HTTP head parsing on random bytes.
// ---------------------------------------------------------------------

TEST(PredictFuzz, RequestHeadParserThrowsOnlyFatalErrors)
{
    Rng rng(0xF0220002ULL);
    int iters = iterations();
    for (int i = 0; i < iters; ++i) {
        std::string head = randomBytes(rng, 200);
        if (rng.nextBool(0.5))
            head = "GET /predict?uarch=" + randomBytes(rng, 40) +
                   " HTTP/1.1\r\nHost: x";
        else if (rng.nextBool(0.5))
            head = instantiate(requestHead(rng), "ADD_R64_R64", "e");
        try {
            (void)server::parseRequestHead(head);
        } catch (const FatalError &) {
        }
        server::RequestHead scanned;
        (void)server::scanFastGet(head, scanned);
        try {
            (void)server::percentDecode(randomBytes(rng, 64));
        } catch (const FatalError &) {
        }
    }
}

// ---------------------------------------------------------------------
// Differential: the zero-parse scanner against the full parser, and
// the inline pipeline against handle().
// ---------------------------------------------------------------------

/** How much of the pipeline a head corpus reached. */
struct HeadCoverage
{
    size_t heads = 0;     ///< complete heads the full parser accepts
    size_t scanned = 0;   ///< ... that scanFastGet accepted too
    size_t inlined = 0;   ///< ... that tryServeInline answered
};

/** Run one head through both parsers and both serving paths the way
 *  the reactor frames it. @p inline_service answers through
 *  tryServeInline() (handle() when that declines); @p reference
 *  through handle() alone, so the two see the same request sequence
 *  and their caches evolve alike. */
void
checkHeadAgreement(const std::string &bytes,
                   server::QueryService &inline_service,
                   server::QueryService &reference,
                   HeadCoverage &coverage)
{
    std::optional<size_t> head_end = server::findHeaderEnd(bytes);
    if (!head_end)
        return;
    std::string_view head = std::string_view(bytes).substr(0, *head_end);
    SCOPED_TRACE(::testing::PrintToString(std::string(head)));

    server::RequestHead scanned;
    bool accepted = server::scanFastGet(head, scanned);
    HttpRequest parsed;
    try {
        parsed = server::parseRequestHead(head);
    } catch (const FatalError &) {
        ASSERT_FALSE(accepted) << "scanner accepted a head the full "
                                  "parser refuses";
        return;
    }
    ++coverage.heads;
    if (accepted) {
        ++coverage.scanned;
        EXPECT_EQ(parsed.method, "GET");
        EXPECT_EQ(parsed.target, scanned.target);
        EXPECT_EQ(server::contentLength(parsed), 0u);
        EXPECT_EQ(parsed.header("Transfer-Encoding"), nullptr);
        server::RequestHead full = parsed.head();
        EXPECT_EQ(full.if_none_match, scanned.if_none_match);
        EXPECT_EQ(full.request_id, scanned.request_id);
        EXPECT_EQ(server::wantsKeepAlive(parsed), !scanned.close);
    }

    // Whichever head the reactor would have produced.
    server::RequestHead head_used = accepted ? scanned : parsed.head();
    bool keep_alive = server::wantsKeepAlive(parsed);
    HttpResponse via_inline;
    if (inline_service.tryServeInline(head_used, via_inline))
        ++coverage.inlined;
    else
        via_inline = inline_service.handle(parsed);
    HttpResponse via_handle = reference.handle(parsed);
    EXPECT_EQ(canonicalWire(server::serializeResponse(via_inline,
                                                      keep_alive)),
              canonicalWire(server::serializeResponse(via_handle,
                                                      keep_alive)));
}

TEST(PredictFuzz, ScannedHeadsAgreeWithTheFullParser)
{
    auto inline_service = fuzzService();
    auto reference = fuzzService();
    db::Query query;
    query.mnemonic = "ADD";
    query.limit = 1;
    auto picked = fuzzCatalog()->search(query);
    ASSERT_EQ(picked.size(), 1u);
    const std::string name(picked[0].name());
    HttpRequest probe = server::parseRequestHead(
        "GET /uarchs HTTP/1.1\r\n\r\n");
    const std::string etag = reference->handle(probe).etag;
    ASSERT_FALSE(etag.empty());

    HeadCoverage coverage;
    for (const std::string &seed : headCorpus().seeds)
        checkHeadAgreement(instantiate(seed, name, etag),
                           *inline_service, *reference, coverage);
    Rng rng(0xF0220005ULL);
    int iters = iterations();
    for (int i = 0; i < iters && !HasFatalFailure(); ++i)
        checkHeadAgreement(instantiate(requestHead(rng), name, etag),
                           *inline_service, *reference, coverage);
    // The corpus must reach every branch: scanned and declined heads,
    // inline answers and pool work.
    EXPECT_GT(coverage.scanned, 0u);
    EXPECT_LT(coverage.scanned, coverage.heads);
    EXPECT_GT(coverage.inlined, 0u);
    EXPECT_LT(coverage.inlined, coverage.heads);
}

// ---------------------------------------------------------------------
// Full /predict request handling.
// ---------------------------------------------------------------------

TEST(PredictFuzz, PredictNeverCrashesAndMapsMalformedInputTo4xx)
{
    auto service = fuzzService();
    Rng rng(0xF0220003ULL);
    const char *uarches[] = {"SKL", "NHM", "HSW", "BDW", "bogus", ""};
    int iters = iterations();
    for (int i = 0; i < iters; ++i) {
        std::string listing = (i % 4 == 0)
                                  ? randomBytes(rng, 512)
                                  : mutatedListing(rng);
        HttpRequest request;
        request.path = "/predict";
        std::string arch =
            uarches[rng.nextBelow(std::size(uarches))];
        if (!arch.empty() || rng.nextBool(0.5))
            request.query["uarch"] = arch;
        if (rng.nextBool(0.7)) {
            request.method = "POST";
            request.target = "/predict";
            request.body = listing;
        } else {
            request.method = "GET";
            request.target = "/predict?uarch=" + arch;
            request.query["asm"] = listing;
        }
        HttpResponse response = service->handle(request);
        checkPredictResponse(response, listing);
    }
}

TEST(PredictFuzz, OversizedKernelsGetStructured413)
{
    auto service = fuzzService();
    // Instruction-count bound.
    std::string long_kernel;
    for (int i = 0; i < 64; ++i)
        long_kernel += "ADD RAX, RBX\n";
    HttpRequest request;
    request.method = "POST";
    request.path = "/predict";
    request.target = "/predict?uarch=SKL";
    request.query["uarch"] = "SKL";
    request.body = long_kernel;
    HttpResponse response = service->handle(request);
    EXPECT_EQ(response.status, 413) << response.body;
    EXPECT_NE(response.body.find("\"rejected_by\":\"admission\""),
              std::string::npos)
        << response.body;
    EXPECT_NE(response.body.find("\"max_instructions\":16"),
              std::string::npos)
        << response.body;

    // Byte-size bound: an enormous listing is rejected before any
    // parsing happens.
    request.body = std::string(1 << 20, 'A');
    response = service->handle(request);
    EXPECT_EQ(response.status, 413) << response.status;
    EXPECT_NE(response.body.find("\"max_listing_bytes\":"),
              std::string::npos)
        << response.body;
}

TEST(PredictFuzz, HugeDisplacementsAreRejectedNotTruncated)
{
    auto service = fuzzService();
    // Displacements beyond the accepted range must be a clean 400 —
    // historically a long->int cast silently truncated them, which
    // made two distinct kernels alias one memory tag.
    for (const char *disp :
         {"99999999999999999999", "4294967297", "2000000", "-2"}) {
        HttpRequest request;
        request.method = "POST";
        request.path = "/predict";
        request.target = "/predict?uarch=SKL";
        request.query["uarch"] = "SKL";
        request.body = std::string("MOV RAX, [RBX+") + disp + "]";
        HttpResponse response = service->handle(request);
        EXPECT_EQ(response.status, 400)
            << disp << ": " << response.body;
    }
}

} // namespace
} // namespace uops::test
