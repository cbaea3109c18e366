/**
 * Ablation: prefetching and cache behaviour (paper §3.2).
 *
 * ChunkFetcher has one prefetch policy: the paper's adaptive ramp (depth
 * doubles per consecutive sequential chunk access), plus full depth from
 * the first access for passes that read every chunk in order
 * (Access::WHOLE_STREAM). This bench compares the two on (a) a sequential
 * full read — decompressAll()'s whole-stream pass against a read() loop
 * that ramps up — and (b) two interleaved sequential readers over the same
 * file, the concurrent-access pattern of a ratarmount-style FUSE mount.
 *
 * Every run imports the file's index first, so no discovery pass runs and
 * the prefetch statistics count only the measured accesses. The archive is
 * cut into 4x as many chunks as the fetcher's cache holds at every scale,
 * so the interleaved readers cannot be served from chunks a previous pass
 * left cached.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/ParallelGzipReader.hpp"
#include "gzip/ZlibCompressor.hpp"
#include "io/MemoryFileReader.hpp"
#include "workloads/DataGenerators.hpp"

#include "BenchmarkHelpers.hpp"

using namespace rapidgzip;

namespace {

/* Consumed / issued: how much speculative work turns into served accesses.
 * "wasted" counts evicted-unconsumed decodes plus the decodes that never
 * found a consumer by the end of the run (dispatched - consumed). */
void
printRow(const char* label, const bench::Measurement& bandwidth, const FetcherStatistics& stats)
{
    const auto wasted = stats.prefetchDispatched - stats.prefetchHits;
    const auto efficiency = stats.prefetchDispatched > 0
                            ? 100.0 * static_cast<double>(stats.prefetchHits)
                              / static_cast<double>(stats.prefetchDispatched)
                            : 0.0;
    std::printf("  %-34s %10.2f ± %-8.2f MB/s   issued %zu, consumed %zu, wasted %zu"
                " (%.1f%% efficient), on-demand %zu\n",
                label, bandwidth.mean / 1e6, bandwidth.stddev / 1e6,
                stats.prefetchDispatched, stats.prefetchHits, wasted, efficiency,
                stats.onDemandDecodes);
    std::fflush(stdout);
}

}  // namespace

int
main()
{
    bench::printHeader("Ablation: prefetch policy (paper 3.2)");

    ChunkFetcherConfiguration configuration;
    configuration.parallelism = 4;
    const auto chunks = 4 * ChunkFetcher::cacheCapacity(configuration);

    const auto data = workloads::base64Data(bench::scaledSize(32 * MiB), 0xAB6);
    /* Two restart points per planned chunk, so the planner can cut the
     * archive into `chunks` pieces. */
    const auto compressed = compressPigzLike({ data.data(), data.size() }, 6,
                                             std::max<std::size_t>(1, data.size() / (2 * chunks)));
    configuration.chunkSizeBytes = std::max<std::size_t>(1, compressed.size() / chunks);
    const auto repeats = bench::benchRepeats(3);

    GzipIndex index;
    {
        ParallelGzipReader reader(std::make_unique<MemoryFileReader>(compressed), configuration);
        index = reader.exportIndex();
    }
    std::printf("  %zu MiB base64, %zu chunks at P = %zu, cache %zu chunks\n",
                data.size() / MiB, index.checkpoints.size(), configuration.parallelism,
                ChunkFetcher::cacheCapacity(configuration));
    const auto openIndexed = [&]() {
        auto reader = std::make_unique<ParallelGzipReader>(
            std::make_unique<MemoryFileReader>(compressed), configuration);
        reader->importIndex(index);
        return reader;
    };

    std::vector<std::uint8_t> buffer(256 * KiB);

    std::printf("  --- sequential full read ---\n");
    {
        FetcherStatistics stats;
        const auto bandwidth = bench::measureBandwidth(data.size(), repeats, [&]() {
            auto reader = openIndexed();
            (void)reader->decompressAll();
            stats = reader->fetcherStatistics();
        });
        printRow("decompressAll() (whole stream)", bandwidth, stats);
    }
    {
        FetcherStatistics stats;
        const auto bandwidth = bench::measureBandwidth(data.size(), repeats, [&]() {
            auto reader = openIndexed();
            while (reader->read(buffer.data(), buffer.size()) > 0) {}
            stats = reader->fetcherStatistics();
        });
        printRow("read() loop (adaptive ramp)", bandwidth, stats);
    }

    std::printf("\n  --- two interleaved sequential readers (ratarmount pattern) ---\n");
    {
        FetcherStatistics stats;
        const auto bandwidth = bench::measureBandwidth(data.size(), repeats, [&]() {
            auto reader = openIndexed();

            /* Alternate 256 KiB reads from the halves of the stream. */
            std::size_t positionA = 0;
            std::size_t positionB = data.size() / 2;
            bool moreA = true;
            bool moreB = true;
            while (moreA || moreB) {
                if (moreA) {
                    reader->seek(positionA);
                    const auto n = reader->read(buffer.data(),
                                                std::min(buffer.size(), data.size() / 2 - positionA));
                    positionA += n;
                    moreA = (n > 0) && (positionA < data.size() / 2);
                }
                if (moreB) {
                    reader->seek(positionB);
                    const auto n = reader->read(buffer.data(),
                                                std::min(buffer.size(), data.size() - positionB));
                    positionB += n;
                    moreB = (n > 0) && (positionB < data.size());
                }
            }
            stats = reader->fetcherStatistics();
        });
        printRow("read() x2 interleaved (adaptive)", bandwidth, stats);
    }

    std::printf("\n  Expected shape: the whole-stream pass and the read() loop decode\n"
                "  every chunk once; the loop pays for its ramp only on the first few\n"
                "  chunks. Interleaved readers reset the sequential streak on every\n"
                "  switch, so each access prefetches one chunk ahead: little waste,\n"
                "  little overlap. Per-stream prefetching (a MULTI_STREAM policy) was\n"
                "  faster on this pattern (one full-scale run: constant depth 150,\n"
                "  adaptive 190, per-stream 210 MB/s) but was removed: no shipped\n"
                "  caller reads that way.\n");
    return 0;
}
