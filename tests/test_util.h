/**
 * @file
 * Shared fixtures and helpers for the test suites.
 */

#ifndef UOPS_TESTS_TEST_UTIL_H
#define UOPS_TESTS_TEST_UTIL_H

#include <memory>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "isa/kernel.h"
#include "isa/parser.h"
#include "sim/harness.h"
#include "support/status.h"
#include "uarch/timing_db.h"

namespace uops::test {

/** Process-wide bundled instruction database. */
inline const isa::InstrDb &
defaultDb()
{
    static const std::unique_ptr<isa::InstrDb> db = isa::buildDefaultDb();
    return *db;
}

/** Cached timing database per uarch. */
inline const uarch::TimingDb &
timingDb(uarch::UArch arch)
{
    static std::map<uarch::UArch, std::unique_ptr<uarch::TimingDb>> dbs;
    auto it = dbs.find(arch);
    if (it == dbs.end())
        it = dbs.emplace(arch, std::make_unique<uarch::TimingDb>(
                                   defaultDb(), arch))
                 .first;
    return *it->second;
}

/** Assemble a newline-separated listing against the default DB. */
inline isa::Kernel
asm_(const std::string &listing)
{
    return isa::assemble(defaultDb(), listing);
}

/** A wire response without its per-request headers (X-Request-Id,
 *  X-Cache), so two serving paths can be compared byte for byte. */
inline std::string
canonicalWire(const std::string &wire)
{
    std::string out;
    size_t at = 0;
    while (at < wire.size()) {
        size_t eol = wire.find("\r\n", at);
        if (eol == std::string::npos) {
            out.append(wire, at, std::string::npos);
            break;
        }
        std::string_view line(wire.data() + at, eol - at);
        if (line.rfind("X-Request-Id:", 0) != 0 &&
            line.rfind("X-Cache:", 0) != 0)
            out.append(wire, at, eol + 2 - at);
        if (line.empty()) {
            // Header terminator: the body is opaque payload.
            out.append(wire, eol + 2, std::string::npos);
            break;
        }
        at = eol + 2;
    }
    return out;
}

/** Measurement with default options on the given uarch. */
inline sim::Measurement
measure(uarch::UArch arch, const std::string &listing,
        sim::HarnessOptions options = {})
{
    sim::MeasurementHarness harness(timingDb(arch), options);
    return harness.measure(asm_(listing));
}

} // namespace uops::test

#endif // UOPS_TESTS_TEST_UTIL_H
