/**
 * core layer: chunk geometry is planned from the file and the pool — about
 * two chunks per worker, capped by chunkSizeBytes, floored at 64 KiB for
 * archives whose restart points are free (full-flush gzip, BGZF, frame
 * formats) and at 1 MiB for the two-stage sweep over plain gzip — and
 * whole-stream passes prefetch at full depth from their first access. Also
 * covers what depends on that geometry: the shared-cache key (readers with
 * different parallelism never serve each other's chunks) and frame
 * sidecars written at one parallelism and adopted at another.
 */

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <zlib.h>

#include "core/ChunkCache.hpp"
#include "core/ChunkFetcher.hpp"
#include "core/FrameParallelReader.hpp"
#include "core/ParallelGzipReader.hpp"
#include "formats/Lz4Writer.hpp"
#include "formats/Sidecar.hpp"
#include "gzip/BgzfWriter.hpp"
#include "gzip/ZlibCompressor.hpp"
#include "io/MemoryFileReader.hpp"
#include "telemetry/Registry.hpp"
#include "telemetry/Trace.hpp"
#include "telemetry/TraceCheck.hpp"
#include "workloads/DataGenerators.hpp"

#include "TestHelpers.hpp"

using namespace rapidgzip;

namespace {

ChunkFetcherConfiguration
config( std::size_t parallelism, std::size_t chunkSize = 4 * MiB )
{
    ChunkFetcherConfiguration result;
    result.parallelism = parallelism;
    result.chunkSizeBytes = chunkSize;
    return result;
}

void
testPlannedChunkBytes()
{
    constexpr auto FREE = RESTART_POINT_CHUNK_FLOOR;
    /* About 2P chunks: ceil(S / 2P). */
    REQUIRE( plannedChunkBytes( 8 * MiB, config( 4 ), FREE ) == 1 * MiB );
    REQUIRE( plannedChunkBytes( 8 * MiB + 1, config( 4 ), FREE ) == 1 * MiB + 1 );
    /* Capped by chunkSizeBytes: large files keep today's chunks. */
    REQUIRE( plannedChunkBytes( 1024 * MiB, config( 4 ), FREE ) == 4 * MiB );
    REQUIRE( plannedChunkBytes( 32 * MiB, config( 4 ), FREE ) == 4 * MiB );
    REQUIRE( plannedChunkBytes( 32 * MiB, config( 4, 1 * MiB ), FREE ) == 1 * MiB );
    /* Floored at 64 KiB, unless the configuration asks for less. */
    REQUIRE( plannedChunkBytes( 100 * KiB, config( 4 ), FREE ) == 64 * KiB );
    REQUIRE( plannedChunkBytes( 0, config( 4 ), FREE ) == 64 * KiB );
    REQUIRE( plannedChunkBytes( 100 * KiB, config( 4, 16 * KiB ), FREE ) == 16 * KiB );
    /* One worker: two chunks; parallelism 0 counts as one. */
    REQUIRE( plannedChunkBytes( 6 * MiB, config( 1 ), FREE ) == 3 * MiB );
    REQUIRE( plannedChunkBytes( 10 * MiB, config( 1 ), FREE ) == 4 * MiB );
    REQUIRE( plannedChunkBytes( 6 * MiB, config( 0 ), FREE ) == 3 * MiB );

    /* The sweep's floor is 1 MiB: small and mid-size files plan fewer,
     * larger chunks; the cap and a configured size at or below the floor
     * are kept exactly. */
    constexpr auto SWEEP = SWEEP_CHUNK_FLOOR;
    REQUIRE( plannedChunkBytes( 8 * MiB, config( 4 ), SWEEP ) == 1 * MiB );
    REQUIRE( plannedChunkBytes( 19 * MiB, config( 4 ), SWEEP ) == 19 * MiB / 8 );
    REQUIRE( plannedChunkBytes( 2 * MiB, config( 4 ), SWEEP ) == 1 * MiB );
    REQUIRE( plannedChunkBytes( 100 * KiB, config( 4 ), SWEEP ) == 1 * MiB );
    REQUIRE( plannedChunkBytes( 1024 * MiB, config( 4 ), SWEEP ) == 4 * MiB );
    REQUIRE( plannedChunkBytes( 19 * MiB, config( 4, 1 * MiB ), SWEEP ) == 1 * MiB );
    REQUIRE( plannedChunkBytes( 19 * MiB, config( 4, 256 * KiB ), SWEEP ) == 256 * KiB );
    REQUIRE( plannedChunkBytes( 19 * MiB, config( 1 ), SWEEP ) == 4 * MiB );
}

/** Frames are stored bytes ("decoding" copies them), so the grouping is
 * all that is under test. */
void
testFrameGrouping()
{
    std::vector<std::size_t> frameSizes( 40, 16 * KiB );
    frameSizes[17] = 600 * KiB;  /* larger than any budget below */
    std::vector<CompressedFrame> frames;
    std::size_t offset = 0;
    for ( const auto size : frameSizes ) {
        CompressedFrame frame;
        frame.compressedBeginBits = offset * 8;
        frame.compressedEndBits = ( offset + size ) * 8;
        frames.push_back( frame );
        offset += size;
    }
    const auto bytes = workloads::base64Data( offset, 0x6F );
    const auto copyFrame = [] ( const FileReader& file, const CompressedFrame& frame, std::size_t,
                                std::vector<std::uint8_t>& output ) {
        const auto begin = output.size();
        output.resize( begin + ( frame.compressedEndBits - frame.compressedBeginBits ) / 8 );
        preadExactly( file, output.data() + begin, output.size() - begin,
                      frame.compressedBeginBits / 8 );
    };

    /* P = 4: budget ceil(1224 KiB / 8) = 153 KiB -> nine 16 KiB frames per
     * chunk; the 600 KiB frame is a chunk of its own. */
    const auto fileSize = offset;
    REQUIRE( plannedChunkBytes( fileSize, config( 4 ), RESTART_POINT_CHUNK_FLOOR ) == 153 * KiB );
    FrameParallelReader reader( std::make_shared<MemoryFileReader>( bytes ), frames, copyFrame,
                                config( 4 ) );
    std::vector<std::uint8_t> output;
    REQUIRE( reader.decompress( [&output] ( BufferView view ) {
        output.insert( output.end(), view.begin(), view.end() );
    } ) == bytes.size() );
    REQUIRE( output == bytes );

    std::vector<std::size_t> starts;
    for ( const auto& [bits, uncompressed] : reader.chunkSeekPoints() ) {
        REQUIRE( bits / 8 == uncompressed );
        starts.push_back( bits / 8 );
    }
    const std::vector<std::size_t> expected{ 0, 9 * 16 * KiB, 17 * 16 * KiB,
                                             17 * 16 * KiB + 600 * KiB,
                                             26 * 16 * KiB + 600 * KiB,
                                             35 * 16 * KiB + 600 * KiB };
    REQUIRE( starts == expected );
}

/** Spans named @p name recorded so far (the trace rings keep them). */
[[nodiscard]] std::size_t
tracedSpans( const char* name )
{
    std::ostringstream json;
    telemetry::TraceCollector::instance().drainJson( json );
    const auto text = json.str();
    telemetry::JsonParser parser( text );
    return telemetry::countTraceEvents( parser.parse(), name );
}

/** At P = 4 a 16 MiB full-flush file and a 16 MiB BGZF file split into
 * P..cacheCapacity chunks, and decompress(sink) decodes each chunk once:
 * the verify loop's chunks are all still cached when the sink pass runs. */
void
testPlannedArchivesDecodeOnce()
{
    const auto data = workloads::silesiaLikeData( 16 * MiB, 0x16 );
    const auto configuration = config( 4 );
    const auto capacity = ChunkFetcher::cacheCapacity( configuration );

    telemetry::setTraceEnabled( true );
    for ( const auto& compressed : { compressPigzLike( { data.data(), data.size() }, 6, 512 * KiB ),
                                     writeBgzf( { data.data(), data.size() } ) } ) {
        const auto spansBefore = tracedSpans( "chunk.decode" );
        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( compressed ), configuration );
        const auto chunks = reader.chunkCount();
        REQUIRE( chunks >= configuration.parallelism );
        REQUIRE( chunks <= capacity );

        std::vector<std::uint8_t> output;
        REQUIRE( reader.decompressAll( [&output] ( BufferView view ) {
            output.insert( output.end(), view.begin(), view.end() );
        } ) == data.size() );
        REQUIRE( output == data );
        REQUIRE( tracedSpans( "chunk.decode" ) - spansBefore == chunks );
        REQUIRE( reader.fetcherStatistics().onDemandDecodes == 1 );
    }
    telemetry::setTraceEnabled( false );
}

/**
 * Plain gzip has no free restart points: its two-stage sweep plans
 * min(chunkSizeBytes, max(ceil(S / 2P), 1 MiB)) per chunk. At the default
 * configuration a file of a few MiB splits into P..2P chunks, all kept and
 * installed, so decompressAll(sink) decodes each once (plus the finder
 * candidates it rejects) and none on demand. A file under the floor is one
 * chunk, decoded on the consumer; a configured chunk size at or below the
 * floor keeps its exact geometry.
 */
void
testSweepGrid()
{
    telemetry::setTraceEnabled( true );
    telemetry::setMetricsEnabled( true );
    const auto rejectedCandidates = [] {
        return telemetry::Registry::instance().counterTotal( "rapidgzip_chunk_candidates_rejected_total" );
    };
    const auto decompressAll = [] ( ParallelGzipReader& reader, const std::vector<std::uint8_t>& data ) {
        std::vector<std::uint8_t> output;
        REQUIRE( reader.decompressAll( [&output] ( BufferView view ) {
            output.insert( output.end(), view.begin(), view.end() );
        } ) == data.size() );
        REQUIRE( output == data );
    };

    {
        const auto data = workloads::base64Data( 8 * MiB, 0x5EE9 );
        const auto compressed = compressGzipLike( { data.data(), data.size() }, 6 );
        REQUIRE( compressed.size() > 4 * MiB );
        const auto configuration = config( 4 );
        const auto spansBefore = tracedSpans( "chunk.decode" );
        const auto rejectedBefore = rejectedCandidates();
        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( compressed ), configuration );
        decompressAll( reader, data );

        const auto chunks = reader.chunkCount();
        REQUIRE( chunks >= configuration.parallelism );
        REQUIRE( chunks <= 2 * configuration.parallelism );
        REQUIRE( tracedSpans( "chunk.decode" ) - spansBefore
                 == chunks + ( rejectedCandidates() - rejectedBefore ) );
        REQUIRE( reader.fetcherStatistics().onDemandDecodes == 0 );
    }

    {
        const auto data = workloads::base64Data( 1 * MiB, 0x5EEA );
        const auto compressed = compressGzipLike( { data.data(), data.size() }, 6 );
        REQUIRE( compressed.size() < SWEEP_CHUNK_FLOOR );
        const auto decodesBefore = tracedSpans( "chunk.decode" );
        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( compressed ), config( 4 ) );
        decompressAll( reader, data );
        /* One decode in all: the sweep's chunk 0, which the consumer
         * decodes from the stream start; nothing speculative ran. */
        REQUIRE( reader.chunkCount() == 1 );
        REQUIRE( tracedSpans( "chunk.decode" ) - decodesBefore == 1 );
    }

    {
        const auto data = workloads::silesiaLikeData( 6 * MiB, 0x5EEB );
        const auto compressed = compressGzipLike( { data.data(), data.size() }, 6 );
        const MemoryFileReader file( compressed );
        const auto expected = GzipChunkFetcher::sweepVerified( file, 4, 256 * KiB, 0, 0 ).index.checkpoints;
        REQUIRE( expected.size() > 2 * 4 );
        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( compressed ), config( 4, 256 * KiB ) );
        decompressAll( reader, data );
        REQUIRE( reader.exportIndex().checkpoints == expected );
    }

    telemetry::setTraceEnabled( false );
    telemetry::setMetricsEnabled( false );
}

[[nodiscard]] ChunkFetcher
makeFetcher( std::size_t chunkCount, std::size_t parallelism )
{
    std::vector<std::size_t> startBits;
    for ( std::size_t i = 0; i < chunkCount; ++i ) {
        startBits.push_back( i * 8 );
    }
    return ChunkFetcher( std::make_shared<MemoryFileReader>( std::vector<std::uint8_t>( chunkCount ) ),
                         startBits,
                         [] ( const FileReader&, std::size_t index ) {
                             DecodedChunk chunk;
                             chunk.data.assign( 1, static_cast<std::uint8_t>( index ) );
                             return chunk;
                         },
                         config( parallelism ) );
}

/** A whole-stream get(0) dispatches min(P, N - 1) prefetches; a plain one
 * starts the ADAPTIVE ramp at one. */
void
testWholeStreamPrefetchDepth()
{
    for ( const auto chunkCount : { std::size_t( 10 ), std::size_t( 3 ), std::size_t( 1 ) } ) {
        auto fetcher = makeFetcher( chunkCount, 4 );
        REQUIRE( fetcher.get( 0, ChunkFetcher::Access::WHOLE_STREAM )->data.at( 0 ) == 0 );
        REQUIRE( fetcher.statistics().prefetchDispatched == std::min<std::size_t>( 4, chunkCount - 1 ) );
        REQUIRE( fetcher.statistics().onDemandDecodes == 1 );
    }

    auto fetcher = makeFetcher( 10, 4 );
    REQUIRE( fetcher.get( 0 )->data.at( 0 ) == 0 );
    REQUIRE( fetcher.statistics().prefetchDispatched == 1 );
    REQUIRE( fetcher.get( 1 )->data.at( 0 ) == 1 );
    REQUIRE( fetcher.statistics().prefetchDispatched == 3 );  /* depth 2: chunks 2 and 3 */
}

/**
 * Full flushes placed so that P = 2 (budget S/4) and P = 5 (budget S/10)
 * plan the same number of chunks with different boundaries: P = 5 cuts at
 * the first point of each pair, P = 2 at the second. Keyed by chunk count,
 * the two readers would share entries and mix their chunks.
 */
void
testSharedCacheKeyFollowsGeometry()
{
    const auto data = workloads::base64Data( 2 * MiB, 0x5CA1E );
    detail::ZlibDeflateStream stream( 6, GZIP_WINDOW_BITS );
    std::vector<std::uint8_t> compressed;
    std::size_t offset = 0;
    for ( const auto fraction : { 0.20, 0.26, 0.48, 0.54, 0.76, 0.82 } ) {
        const auto end = static_cast<std::size_t>( fraction * static_cast<double>( data.size() ) );
        stream.compress( { data.data() + offset, end - offset }, Z_FULL_FLUSH, compressed );
        offset = end;
    }
    stream.compress( { data.data() + offset, data.size() - offset }, Z_FINISH, compressed );

    const auto cache = std::make_shared<LruChunkCache>( data.size() / 2 );
    const auto readWhole = [&] ( std::size_t parallelism, std::vector<std::size_t>& starts ) {
        auto configuration = config( parallelism );
        configuration.sharedCache = cache;
        configuration.cacheIdentity = 0xA2C41FE;
        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( compressed ), configuration );
        reader.setVerifyChecksums( false );
        std::vector<std::uint8_t> output( data.size() + 1 );
        output.resize( reader.read( output.data(), output.size() ) );
        for ( const auto& checkpoint : reader.exportIndex().checkpoints ) {
            starts.push_back( checkpoint.compressedOffsetBits );
        }
        return output;
    };

    std::vector<std::size_t> startsTwo;
    std::vector<std::size_t> startsFive;
    REQUIRE( readWhole( 2, startsTwo ) == data );
    REQUIRE( readWhole( 5, startsFive ) == data );
    REQUIRE( startsTwo.size() == 4 );
    REQUIRE( startsFive.size() == startsTwo.size() );
    REQUIRE( startsFive != startsTwo );
    std::vector<std::size_t> startsAgain;
    REQUIRE( readWhole( 2, startsAgain ) == data );
}

[[nodiscard]] std::string
makeTempDirectory()
{
    char templatePath[] = "/tmp/rapidgzip-planning-test-XXXXXX";
    const char* path = ::mkdtemp( templatePath );
    REQUIRE( path != nullptr );
    return path;
}

/** An lz4 sidecar written at P = 8 is adopted at P = 2: the reader takes
 * its chunks from the sidecar, so the measuring sweep never runs. */
void
testFrameSidecarAdoptsAcrossParallelism()
{
    const auto directory = makeTempDirectory();
    const auto data = workloads::silesiaLikeData( 3 * MiB, 0x1A4 );
    const auto path = directory + "/data.lz4";
    {
        const auto archive = formats::writeLz4( { data.data(), data.size() },
                                                formats::Lz4Writer::BlockMaxSize::KIB64 );
        std::FILE* file = std::fopen( path.c_str(), "wb" );
        REQUIRE( file != nullptr );
        REQUIRE( std::fwrite( archive.data(), 1, archive.size(), file ) == archive.size() );
        REQUIRE( std::fclose( file ) == 0 );
    }

    std::vector<formats::SeekPoint> written;
    {
        auto cold = formats::openArchive( path, config( 8 ), /* adoptSidecar */ false );
        REQUIRE( cold->size() == data.size() );
        written = cold->seekPoints();
        formats::writeSidecarIndex( *cold, path );
    }
    const auto native = formats::openArchive( path, config( 2 ), /* adoptSidecar */ false )->seekPoints();
    REQUIRE( native.size() < written.size() );  /* P = 2 alone would plan fewer chunks */

    telemetry::setMetricsEnabled( true );
    const auto framesDecoded = [] {
        return telemetry::Registry::instance().counterTotal( "rapidgzip_frames_decoded_total" );
    };
    auto fresh = formats::openArchive( path, config( 2 ), /* adoptSidecar */ false );
    REQUIRE( formats::trySidecarAdoption( *fresh, path ) );
    const auto before = framesDecoded();
    REQUIRE( fresh->size() == data.size() );
    REQUIRE( framesDecoded() == before );  /* no measuring sweep */

    const auto adopted = fresh->seekPoints();
    REQUIRE( adopted.size() == written.size() );
    for ( std::size_t i = 0; i < adopted.size(); ++i ) {
        REQUIRE( adopted[i].compressedOffsetBits == written[i].compressedOffsetBits );
        REQUIRE( adopted[i].uncompressedOffset == written[i].uncompressedOffset );
    }

    std::vector<std::uint8_t> slice( 4096 );
    REQUIRE( fresh->readAt( 2 * MiB, slice.data(), slice.size() ) == slice.size() );
    REQUIRE( std::memcmp( slice.data(), data.data() + 2 * MiB, slice.size() ) == 0 );
    std::vector<std::uint8_t> output;
    REQUIRE( fresh->decompress( [&output] ( BufferView view ) {
        output.insert( output.end(), view.begin(), view.end() );
    } ) == data.size() );
    REQUIRE( output == data );
    telemetry::setMetricsEnabled( false );

    /* Points that are not all frame starts (or do not begin at the first
     * frame) are refused, leaving the reader to measure for itself. */
    auto shifted = written;
    shifted[1].compressedOffsetBits += 8;
    REQUIRE( !formats::openArchive( path, config( 2 ), false )
                  ->importSeekPoints( shifted, data.size() ) );
    REQUIRE( !formats::openArchive( path, config( 2 ), false )
                  ->importSeekPoints( { written.begin() + 1, written.end() }, data.size() ) );

    std::remove( formats::sidecarPathFor( path ).c_str() );
    std::remove( path.c_str() );
    ::rmdir( directory.c_str() );
}

}  // namespace

int
main()
{
    testPlannedChunkBytes();
    testFrameGrouping();
    testWholeStreamPrefetchDepth();
    testSharedCacheKeyFollowsGeometry();
    testFrameSidecarAdoptsAcrossParallelism();
    testPlannedArchivesDecodeOnce();
    testSweepGrid();
    return rapidgzip::test::finish( "testChunkPlanning" );
}
