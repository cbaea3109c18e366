/**
 * Figure 12 reproduction: influence of the chunk size on decompression
 * bandwidth at a fixed thread count. Paper (16 cores, 8 GiB base64): very
 * small chunks lose to block finder overhead; very large chunks lose to load
 * imbalance. Optimum at 4 MiB for rapidgzip vs 32 MiB for pugz — the faster
 * block finder allows 8x smaller chunks and hence less memory.
 *
 * The input is pigz-like (full flushes), whose restart points cost nothing
 * to find, so rapidgzip plans at most plannedChunkBytes per chunk (about two
 * chunks per worker): budgets above compressed size / (2 x threads) are
 * capped, and the rapidgzip #chunks column is the reader's real count. The
 * pugz-like baseline chunks by the raw budget.
 */

#include <memory>

#include "baselines/PugzLikeDecompressor.hpp"
#include "core/ParallelGzipReader.hpp"
#include "gzip/ZlibCompressor.hpp"
#include "io/MemoryFileReader.hpp"
#include "workloads/DataGenerators.hpp"

#include "BenchmarkHelpers.hpp"

using namespace rapidgzip;

int
main()
{
    bench::printHeader("Figure 12: influence of the chunk size (fixed parallelism = 4)");

    const auto data = workloads::base64Data(bench::scaledSize(48 * MiB), 0xF1C);
    const auto compressed = compressPigzLike({ data.data(), data.size() }, 6, 512 * 1024);
    const auto repeats = bench::benchRepeats(3);
    constexpr std::size_t THREADS = 4;

    std::printf("  compressed size: %s\n\n", formatBytes(compressed.size()).c_str());
    std::printf("  %-14s %-10s %-28s %-10s %s\n", "chunk size", "#chunks", "rapidgzip",
                "#chunks", "pugz-like");

    for (const std::size_t chunkSize : { 64 * KiB, 128 * KiB, 256 * KiB, 512 * KiB,
                                         1 * MiB, 2 * MiB, 4 * MiB, 8 * MiB, 16 * MiB }) {
        std::size_t rapidChunks = 0;
        const auto rapid = bench::measureBandwidth(data.size(), repeats, [&]() {
            ChunkFetcherConfiguration config;
            config.parallelism = THREADS;
            config.chunkSizeBytes = chunkSize;
            ParallelGzipReader reader(std::make_unique<MemoryFileReader>(compressed), config);
            (void)reader.decompressAll();
            rapidChunks = reader.chunkCount();
        });

        const auto pugz = bench::measureBandwidth(data.size(), repeats, [&]() {
            PugzLikeDecompressor::Options options;
            options.threadCount = THREADS;
            options.chunkSizeBytes = chunkSize;
            PugzLikeDecompressor decompressor(std::make_unique<MemoryFileReader>(compressed),
                                              options);
            (void)decompressor.decompressAllSize();
        });

        std::printf("  %-14s %-10zu %10.2f ± %-8.2f MB/s %-10zu %10.2f ± %-8.2f MB/s\n",
                    formatBytes(chunkSize).c_str(), rapidChunks, rapid.mean / 1e6,
                    rapid.stddev / 1e6, compressed.size() / chunkSize + 1, pugz.mean / 1e6,
                    pugz.stddev / 1e6);
        std::fflush(stdout);
    }

    std::printf("\n  Expected shape (paper Fig. 12): an inverted U; rapidgzip's optimum\n"
                "  sits at a smaller chunk size than pugz's thanks to the faster finder.\n"
                "  The right side of the U is load imbalance: too few chunks for the\n"
                "  threads. On this full-flush input the chunk planner removes it for\n"
                "  rapidgzip: its #chunks stops falling once the budget passes\n"
                "  compressed size / (2 x threads). Only the pugz-like column keeps\n"
                "  that side.\n");
    return 0;
}
