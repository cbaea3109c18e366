/**
 * Table 2 reproduction: bandwidths of the individual pipeline components —
 * the four Dynamic block finder (DBF) implementations, the Non-Compressed
 * block finder (NBF), marker replacement, writing, and newline counting.
 *
 * Paper values (MB/s): DBF zlib 0.12, DBF custom deflate 3.4, pugz finder
 * 11.3, DBF skip-LUT 18.3, DBF rapidgzip 43.1, NBF 301.8, marker
 * replacement 1254, write to /dev/shm 3799, count newlines 9550.
 * (The pugz finder is approximated by the skip-LUT variant; see DESIGN.md.)
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>
#include <system_error>

#include "blockfinder/DynamicBlockFinderNaive.hpp"
#include "blockfinder/DynamicBlockFinderRapid.hpp"
#include "blockfinder/DynamicBlockFinderSkipLUT.hpp"
#include "blockfinder/DynamicBlockFinderZlib.hpp"
#include "blockfinder/NonCompressedBlockFinder.hpp"
#include "deflate/DecodedData.hpp"
#include "simd/Dispatch.hpp"
#include "workloads/DataGenerators.hpp"

#include "BenchmarkHelpers.hpp"

using namespace rapidgzip;

namespace {

template<typename Finder>
bench::Measurement
measureFinder(const std::vector<std::uint8_t>& data, std::size_t repeats,
              Finder prototype = Finder{})
{
    /* The volatile sink keeps the compiler from proving the scan loop free
     * of side effects and deleting it wholesale (NBF is simple enough to be
     * fully eliminated otherwise, reporting absurd TB/s). */
    volatile std::size_t sink = 0;
    return bench::measureBandwidth(data.size(), repeats, [&]() {
        Finder finder = prototype;
        std::size_t fromBit = 0;
        std::size_t checksum = 0;
        while (true) {
            const auto offset = finder.find({ data.data(), data.size() }, fromBit);
            if (offset == blockfinder::NOT_FOUND) {
                break;
            }
            checksum += offset;
            fromBit = offset + 1;
        }
        sink = sink + checksum;
    });
}

}  // namespace

int
main()
{
    bench::printHeader("Table 2: component bandwidths");
    /* All rows measure SHIPPED defaults: the marker-replacement row goes
     * through the dispatched simd kernel and the naive-DBF row builds the
     * decoder's multi-cached LUTs. */
    std::printf("  simd dispatch: %s\n\n", simd::toString(simd::activeLevel()));

    const auto repeats = bench::benchRepeats(3);

    /* Random data, like the paper: the finders search it exhaustively. */
    const auto small = workloads::randomData(bench::scaledSize(512 * KiB), 0x7AB1E2);
    const auto medium = workloads::randomData(bench::scaledSize(4 * MiB), 0x7AB1E2);
    const auto large = workloads::randomData(bench::scaledSize(32 * MiB), 0x7AB1E2);

    /* DBF zlib is ~350x slower than DBF rapidgzip: use a small input. */
    {
        const auto tiny = workloads::randomData(bench::scaledSize(96 * KiB), 0x7AB1E2);
        printRow("DBF zlib", measureFinder<blockfinder::DynamicBlockFinderZlib>(tiny, repeats),
                 "0.1234 MB/s");
    }
    /* Each candidate parse builds the packed tables the real decoder uses:
     * the row prices what production pays. */
    printRow("DBF custom deflate",
             measureFinder<blockfinder::DynamicBlockFinderNaive>(small, repeats),
             "3.403 MB/s");
    printRow("DBF skip-LUT (~pugz finder)",
             measureFinder<blockfinder::DynamicBlockFinderSkipLUT>(medium, repeats),
             "18.26 (pugz: 11.3) MB/s");
    printRow("DBF rapidgzip",
             measureFinder<blockfinder::DynamicBlockFinderRapid>(medium, repeats), "43.1 MB/s");
    printRow("NBF", measureFinder<blockfinder::NonCompressedBlockFinder>(large, repeats),
             "301.8 MB/s");

    /* Marker replacement: resolve a 16-bit buffer with ~10% markers. */
    {
        const auto symbolCount = bench::scaledSize(32 * MiB);
        std::vector<std::uint16_t> symbols(symbolCount);
        Xorshift64 random(0x7AB1E3);
        for (auto& symbol : symbols) {
            const auto value = random();
            symbol = (value % 10 == 0)
                     ? static_cast<std::uint16_t>(deflate::MARKER_BASE + (value % 32768))
                     : static_cast<std::uint16_t>(value & 0xFFU);
        }
        const auto window = workloads::randomData(32768, 0x7AB1E4);
        std::vector<std::uint8_t> output(symbols.size());
        printRow("Marker replacement",
                 bench::measureBandwidth(symbols.size(), repeats, [&]() {
                     deflate::replaceMarkers({ symbols.data(), symbols.size() },
                                             { window.data(), window.size() },
                                             output.data());
                 }),
                 "1254 MB/s");
    }

    /* Write to /dev/shm — or, when the container has no (writable)
     * /dev/shm, to the temp directory, so CI never silently benchmarks a
     * failed ofstream. */
    {
        std::string directory = "/dev/shm";
        auto path = directory + "/rapidgzip-bench-write.bin";
        {
            std::ofstream probe(path, std::ios::binary | std::ios::trunc);
            if (!probe.good()) {
                std::error_code errorCode;
                auto fallback = std::filesystem::temp_directory_path(errorCode);
                directory = errorCode ? "." : fallback.string();
                path = directory + "/rapidgzip-bench-write.bin";
            }
        }
        bool writeFailed = false;
        const auto bandwidth = bench::measureBandwidth(large.size(), repeats, [&]() {
            std::ofstream file(path, std::ios::binary | std::ios::trunc);
            file.write(reinterpret_cast<const char*>(large.data()),
                       static_cast<std::streamsize>(large.size()));
            file.flush();
            writeFailed = writeFailed || !file.good();
        });
        std::remove(path.c_str());
        if (writeFailed) {
            std::printf("  %-42s UNAVAILABLE (cannot write to %s)\n",
                        "Write to /dev/shm", directory.c_str());
        } else {
            printRow("Write to " + directory, bandwidth, "3799 MB/s (/dev/shm)");
        }
    }

    /* Count newlines (the post-processing task the paper uses as a ceiling). */
    {
        const auto text = workloads::base64Data(bench::scaledSize(32 * MiB), 0x7AB1E5);
        volatile std::size_t sink = 0;
        printRow("Count newlines",
                 bench::measureBandwidth(text.size(), repeats, [&]() {
                     std::size_t count = 0;
                     const auto* p = text.data();
                     const auto* end = p + text.size();
                     while ((p = static_cast<const std::uint8_t*>(
                                 std::memchr(p, '\n', static_cast<std::size_t>(end - p))))
                            != nullptr) {
                         ++count;
                         ++p;
                     }
                     sink = sink + count;
                 }),
                 "9550 MB/s");
    }

    std::printf("\n  Expected shape (paper Table 2): each row an order of magnitude-ish\n"
                "  above the previous: zlib trial << custom parse << skip-LUT < rapid\n"
                "  << NBF << marker replacement << write << newline counting.\n");
    return 0;
}
