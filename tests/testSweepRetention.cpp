/**
 * core layer: the verified two-stage sweep is the only decode pass for
 * plain gzip. The chunks it keeps must equal what a decode from the
 * harvested checkpoints returns, field for field; decompress(sink) must
 * decode each chunk once when they all fit the cache, and exactly the
 * chunks past the kept prefix again when they do not; and no sink call may
 * happen before every footer verified.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "core/ParallelGzipReader.hpp"
#include "gzip/ZlibCompressor.hpp"
#include "io/MemoryFileReader.hpp"
#include "telemetry/Registry.hpp"
#include "telemetry/Trace.hpp"
#include "telemetry/TraceCheck.hpp"
#include "workloads/DataGenerators.hpp"

#include "TestHelpers.hpp"

using namespace rapidgzip;

namespace {

constexpr auto NO_LIMIT = std::numeric_limits<std::size_t>::max();

ChunkFetcherConfiguration
config( std::size_t parallelism, std::size_t chunkSize, std::size_t cacheChunkCount = 0 )
{
    ChunkFetcherConfiguration result;
    result.parallelism = parallelism;
    result.chunkSizeBytes = chunkSize;
    result.cacheChunkCount = cacheChunkCount;
    return result;
}

std::vector<std::uint8_t>
gzip( const std::vector<std::uint8_t>& data )
{
    return compressGzipLike( { data.data(), data.size() }, 6 );
}

/** Every kept chunk equals decodeChunkFromCheckpoint()'s output for its
 * checkpoint, field for field, and together they are zlib's output.
 * Returns how many stored windows are sparse (differ from the real
 * history because never-referenced bytes were zeroed). */
std::size_t
checkKeptChunksMatchCheckpointDecodes( const std::vector<std::uint8_t>& compressed,
                                       std::size_t chunkSize,
                                       std::size_t checkpointSpacing )
{
    const MemoryFileReader file( compressed );
    const auto sweep = GzipChunkFetcher::sweepVerified( file, 4, chunkSize, checkpointSpacing,
                                                        NO_LIMIT );
    const auto& checkpoints = sweep.index.checkpoints;
    REQUIRE( checkpoints.size() > 1 );
    REQUIRE( sweep.keptChunks.size() == checkpoints.size() );

    std::vector<std::uint8_t> concatenated;
    std::size_t sparseWindows = 0;
    for ( std::size_t i = 0; i < checkpoints.size(); ++i ) {
        const auto startBits = checkpoints[i].compressedOffsetBits;
        const auto untilBits = i + 1 < checkpoints.size()
                               ? checkpoints[i + 1].compressedOffsetBits : NO_LIMIT;
        const auto window = sweep.index.windows.get( startBits );
        REQUIRE( window.size() <= concatenated.size() );
        if ( !std::equal( window.begin(), window.end(),
                          concatenated.end() - static_cast<std::ptrdiff_t>( window.size() ) ) ) {
            ++sparseWindows;
        }
        const auto expected = GzipChunkFetcher::decodeChunkFromCheckpoint(
            file, startBits, untilBits, { window.data(), window.size() } );
        const auto& kept = sweep.keptChunks[i];

        REQUIRE( kept.data == expected.data );
        REQUIRE( kept.crc32 == expected.crc32 );
        REQUIRE( kept.trailingCrc32 == expected.trailingCrc32 );
        REQUIRE( kept.reachedStreamEnd == expected.reachedStreamEnd );
        REQUIRE( kept.deflateEndOffset == expected.deflateEndOffset );
        REQUIRE( kept.memberEnds.size() == expected.memberEnds.size() );
        for ( std::size_t j = 0; j < kept.memberEnds.size(); ++j ) {
            REQUIRE( kept.memberEnds[j].dataEndOffset == expected.memberEnds[j].dataEndOffset );
            REQUIRE( kept.memberEnds[j].segmentCrc32 == expected.memberEnds[j].segmentCrc32 );
            REQUIRE( kept.memberEnds[j].footerStartByte == expected.memberEnds[j].footerStartByte );
        }
        concatenated.insert( concatenated.end(), kept.data.begin(), kept.data.end() );
    }
    REQUIRE( concatenated == decompressWithZlib( { compressed.data(), compressed.size() } ) );

    /* A smaller budget keeps exactly that prefix. */
    const auto prefix = GzipChunkFetcher::sweepVerified( file, 4, chunkSize, checkpointSpacing, 2 );
    REQUIRE( prefix.keptChunks.size() == 2 );
    REQUIRE( prefix.keptChunks[1].data == sweep.keptChunks[1].data );
    REQUIRE( prefix.keptChunks[1].crc32 == sweep.keptChunks[1].crc32 );
    return sparseWindows;
}

void
testInstalledChunksMatchCheckpointDecodes()
{
    const auto data = workloads::silesiaLikeData( 3 * MiB, 0x51E5 );
    /* The speculative chunks' markers must still make their windows sparse. */
    REQUIRE( checkKeptChunksMatchCheckpointDecodes( gzip( data ), 256 * KiB, 0 ) > 0 );

    /* Chunks of several MiB of output resolve as several byte ranges. */
    const auto large = workloads::silesiaLikeData( 12 * MiB, 0x1A7 );
    (void)checkKeptChunksMatchCheckpointDecodes( gzip( large ), 1 * MiB, 0 );

    /* Concatenated members, two of them shorter than one chunk, one empty. */
    std::vector<std::uint8_t> members;
    for ( const auto& part : { workloads::base64Data( 1 * MiB, 1 ), workloads::fastqData( 20 * KiB, 2 ),
                               workloads::silesiaLikeData( 700 * KiB, 3 ), std::vector<std::uint8_t>{},
                               workloads::base64Data( 300, 4 ) } ) {
        const auto member = gzip( part );
        members.insert( members.end(), member.begin(), member.end() );
    }
    (void)checkKeptChunksMatchCheckpointDecodes( members, 128 * KiB, 0 );

    /* Spacing: one checkpoint spans several sweep chunks. */
    const MemoryFileReader file( gzip( data ) );
    const auto spaced = GzipChunkFetcher::sweepVerified( file, 4, 128 * KiB, 1 * MiB, NO_LIMIT );
    const auto dense = GzipChunkFetcher::sweepVerified( file, 4, 128 * KiB, 0, NO_LIMIT );
    REQUIRE( 2 * spaced.index.checkpoints.size() <= dense.index.checkpoints.size() );
    (void)checkKeptChunksMatchCheckpointDecodes( gzip( data ), 128 * KiB, 1 * MiB );
}

[[nodiscard]] std::size_t
tracedDecodeSpans()
{
    std::ostringstream json;
    telemetry::TraceCollector::instance().drainJson( json );
    const auto text = json.str();
    telemetry::JsonParser parser( text );
    return telemetry::countTraceEvents( parser.parse(), "chunk.decode" );
}

[[nodiscard]] std::uint64_t
counter( const char* name )
{
    return telemetry::Registry::instance().counterTotal( name );
}

struct CollectingSink
{
    std::vector<std::uint8_t> bytes;
    std::size_t calls{ 0 };

    [[nodiscard]] std::function<void( BufferView )>
    function()
    {
        return [this] ( BufferView view ) {
            ++calls;
            bytes.insert( bytes.end(), view.begin(), view.end() );
        };
    }
};

/** decompress(sink) over a stream whose chunks all fit the cache decodes
 * each chunk once; with a two-chunk cache exactly the rest decode again. */
void
testDecodePassCounts()
{
    const auto data = workloads::base64Data( 3 * MiB, 0xDEC0 );
    const auto compressed = gzip( data );

    telemetry::setTraceEnabled( true );
    telemetry::setMetricsEnabled( true );

    {
        const auto spansBefore = tracedDecodeSpans();
        const auto rejectedBefore = counter( "rapidgzip_chunk_candidates_rejected_total" );
        const auto redecodesBefore = counter( "rapidgzip_chunk_redecodes_total" );
        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( compressed ),
                                   config( 4, 256 * KiB ) );
        CollectingSink sink;
        REQUIRE( reader.decompressAll( sink.function() ) == data.size() );
        REQUIRE( sink.bytes == data );

        const auto chunks = reader.chunkCount();
        REQUIRE( chunks >= 6 );
        REQUIRE( chunks <= ChunkFetcher::cacheCapacity( config( 4, 256 * KiB ) ) );
        REQUIRE( counter( "rapidgzip_chunk_redecodes_total" ) == redecodesBefore );
        const auto rejected = counter( "rapidgzip_chunk_candidates_rejected_total" ) - rejectedBefore;
        REQUIRE( tracedDecodeSpans() - spansBefore == chunks + rejected );

        const auto& statistics = reader.fetcherStatistics();
        REQUIRE( statistics.onDemandDecodes == 0 );
        REQUIRE( statistics.prefetchDispatched == 0 );
        REQUIRE( statistics.cacheHits == chunks );
    }

    /* One worker keeps the prefetch depth at one chunk, so no prefetch is
     * evicted unread and the count is exact. */
    {
        const auto configuration = config( 1, 256 * KiB, /* cacheChunkCount */ 2 );
        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( compressed ), configuration );
        CollectingSink sink;
        REQUIRE( reader.decompressAll( sink.function() ) == data.size() );
        REQUIRE( sink.bytes == data );

        const auto chunks = reader.chunkCount();
        REQUIRE( chunks >= 6 );
        const auto& statistics = reader.fetcherStatistics();
        REQUIRE( statistics.prefetchDispatched + statistics.onDemandDecodes == chunks - 2 );
        REQUIRE( statistics.prefetchWasted == 0 );
    }

    telemetry::setTraceEnabled( false );
    telemetry::setMetricsEnabled( false );

    /* With a shared tier the kept chunks live there, accounted by bytes. */
    {
        auto configuration = config( 4, 256 * KiB );
        const auto cache = std::make_shared<LruChunkCache>( 64 * MiB );
        configuration.sharedCache = cache;
        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( compressed ), configuration );
        const auto insertionsBefore = cache->statistics().insertions;
        CollectingSink sink;
        REQUIRE( reader.decompressAll( sink.function() ) == data.size() );
        REQUIRE( sink.bytes == data );
        REQUIRE( cache->statistics().insertions - insertionsBefore == reader.chunkCount() );
        REQUIRE( cache->statistics().currentBytes >= data.size() );
        const auto& statistics = reader.fetcherStatistics();
        REQUIRE( statistics.onDemandDecodes == 0 );
        REQUIRE( statistics.prefetchDispatched == 0 );
        REQUIRE( statistics.cacheHits == reader.chunkCount() );
    }
}

/** A footer whose CRC32 or ISIZE does not match: decompress(sink) throws a
 * typed error before any sink call, and later reads refuse to serve. */
void
testVerifyBeforeEmit()
{
    const auto data = workloads::silesiaLikeData( 2 * MiB, 0xBAD );
    const auto compressed = gzip( data );
    for ( const std::size_t footerByte : { compressed.size() - 8, compressed.size() - 4 } ) {
        auto corrupted = compressed;
        corrupted[footerByte] ^= 0x01U;
        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( corrupted ),
                                   config( 4, 256 * KiB ) );
        CollectingSink sink;
        REQUIRE_THROWS_AS( (void)reader.decompressAll( sink.function() ), RapidgzipError );
        REQUIRE( sink.calls == 0 );

        std::vector<std::uint8_t> buffer( 4096 );
        REQUIRE_THROWS_AS( (void)reader.read( buffer.data(), buffer.size() ), ChecksumError );
        std::vector<OwnedSpan> spans;
        REQUIRE_THROWS_AS( (void)reader.readSpans( buffer.size(), spans ), ChecksumError );
        REQUIRE( spans.empty() );
    }
}

}  // namespace

int
main()
{
    testInstalledChunksMatchCheckpointDecodes();
    testDecodePassCounts();
    testVerifyBeforeEmit();
    return rapidgzip::test::finish( "testSweepRetention" );
}
