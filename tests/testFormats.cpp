/**
 * Unit tests for the format-dispatch layer (src/formats/): magic-byte
 * detection, the XXH32 implementation against the specification vectors,
 * the from-scratch LZ4 block codec's edge cases, frame walking and seek
 * tables, bzip2 synthetic single-block streams, and the Decompressor
 * interface (decompress/size/readAt/seekPoints) per backend. The
 * randomized cross-format differential lives in testDifferential.cpp.
 */

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "core/FrameParallelReader.hpp"
#include "formats/Decompressor.hpp"
#include "formats/Format.hpp"
#include "formats/Formats.hpp"
#include "formats/Lz4Codec.hpp"
#include "formats/Lz4Writer.hpp"
#include "formats/XxHash32.hpp"
#include "gzip/ZlibCompressor.hpp"
#include "io/MemoryFileReader.hpp"
#include "telemetry/Registry.hpp"
#include "telemetry/Telemetry.hpp"
#include "workloads/DataGenerators.hpp"

#if defined( RAPIDGZIP_HAVE_VENDOR_ZSTD )
#include "formats/ZstdDecompressor.hpp"
#include "formats/ZstdWriter.hpp"
#endif
#if defined( RAPIDGZIP_HAVE_VENDOR_BZIP2 )
#include "formats/Bzip2Decompressor.hpp"
#include "formats/Bzip2Writer.hpp"
#endif

#include "TestHelpers.hpp"

using namespace rapidgzip;
using formats::Format;

namespace {

void
testDetectFormat()
{
    const auto detect = [] ( std::vector<std::uint8_t> bytes ) {
        return formats::detectFormat( { bytes.data(), bytes.size() } );
    };
    REQUIRE( detect( { 0x1F, 0x8B, 0x08, 0x00 } ) == Format::GZIP );
    REQUIRE( detect( { 0x1F, 0x8B } ) == Format::GZIP );
    REQUIRE( detect( { 0x28, 0xB5, 0x2F, 0xFD } ) == Format::ZSTD );
    REQUIRE( detect( { 0x5E, 0x2A, 0x4D, 0x18 } ) == Format::ZSTD );  /* skippable */
    REQUIRE( detect( { 0x04, 0x22, 0x4D, 0x18 } ) == Format::LZ4 );
    REQUIRE( detect( { 'B', 'Z', 'h', '9' } ) == Format::BZIP2 );
    REQUIRE( detect( { 'B', 'Z', 'h', '1' } ) == Format::BZIP2 );
    REQUIRE( detect( { 'B', 'Z', 'h', '0' } ) == Format::UNKNOWN );
    REQUIRE( detect( { 'B', 'Z', 'x', '9' } ) == Format::UNKNOWN );
    REQUIRE( detect( {} ) == Format::UNKNOWN );
    REQUIRE( detect( { 0x1F } ) == Format::UNKNOWN );
    REQUIRE( detect( { 0x00, 0x00, 0x00, 0x00 } ) == Format::UNKNOWN );

    /* Dispatch on unknown magic throws, distinguishably. */
    REQUIRE_THROWS_AS(
        (void)formats::makeDecompressor(
            std::make_unique<MemoryFileReader>( std::vector<std::uint8_t>( 64, 0x42 ) ) ),
        RapidgzipError );

    /* Leading SKIPPABLE frames are shared by the zstd and lz4 frame
     * formats: file-level detection must walk past them and let the first
     * DATA frame decide (an lz4 file opening with skippable metadata must
     * NOT route to zstd). */
    {
        const auto payload = workloads::base64Data( 4 * KiB, 0x51C1 );
        std::vector<std::uint8_t> lz4File;
        const std::vector<std::uint8_t> metadata{ 'm', 'e', 't', 'a' };
        formats::Lz4Writer::writeSkippableFrame( lz4File, { metadata.data(), metadata.size() } );
        formats::Lz4Writer::writeFrame( lz4File, { payload.data(), payload.size() } );
        {
            MemoryFileReader reader( lz4File );
            REQUIRE( formats::detectFormat( reader ) == Format::LZ4 );
        }
        /* ...and the routed backend actually decodes it. */
        auto decompressor = formats::makeDecompressor(
            std::make_unique<MemoryFileReader>( lz4File ) );
        REQUIRE( decompressor->format() == Format::LZ4 );
        std::vector<std::uint8_t> decoded;
        (void)decompressor->decompress( [&decoded] ( BufferView view ) {
            decoded.insert( decoded.end(), view.begin(), view.end() );
        } );
        REQUIRE( decoded == payload );

#if defined( RAPIDGZIP_HAVE_VENDOR_ZSTD )
        std::vector<std::uint8_t> zstdFile;
        formats::Lz4Writer::writeSkippableFrame( zstdFile, { metadata.data(), metadata.size() } );
        const auto zstdFrames = formats::writeZstdFrames( { payload.data(), payload.size() } );
        zstdFile.insert( zstdFile.end(), zstdFrames.begin(), zstdFrames.end() );
        MemoryFileReader zstdReader( zstdFile );
        REQUIRE( formats::detectFormat( zstdReader ) == Format::ZSTD );
#endif
    }
}

void
testXxHash32()
{
    /* Specification test vectors. */
    REQUIRE( formats::xxhash32( "", 0 ) == 0x02CC5D05U );
    REQUIRE( formats::xxhash32( "a", 1 ) == 0x550D7456U );
    REQUIRE( formats::xxhash32( "abc", 3 ) == 0x32D153FFU );

    /* Streamer ≡ one-shot for every split of a 4 KiB buffer sample. */
    const auto data = workloads::randomData( 4 * KiB, 0x77AA );
    const auto oneShot = formats::xxhash32( data.data(), data.size() );
    for ( const std::size_t split : { std::size_t( 0 ), std::size_t( 1 ), std::size_t( 15 ),
                                      std::size_t( 16 ), std::size_t( 17 ),
                                      std::size_t( 1000 ), data.size() } ) {
        formats::Xxh32Streamer streamer;
        streamer.update( data.data(), split );
        streamer.update( data.data() + split, data.size() - split );
        REQUIRE( streamer.digest() == oneShot );
    }
    /* Byte-by-byte feed. */
    formats::Xxh32Streamer streamer;
    for ( const auto byte : data ) {
        streamer.update( &byte, 1 );
    }
    REQUIRE( streamer.digest() == oneShot );
}

void
testLz4BlockCodec()
{
    /* Round trips across shapes: empty, tiny, runs, incompressible. */
    for ( const auto& input : { std::vector<std::uint8_t>{},
                                std::vector<std::uint8_t>{ 'x' },
                                std::vector<std::uint8_t>( 12, 'a' ),
                                std::vector<std::uint8_t>( 13, 'a' ),
                                std::vector<std::uint8_t>( 1000, 'r' ),
                                workloads::randomData( 70 * KiB, 1 ),
                                workloads::runsData( 70 * KiB, 2 ),
                                workloads::lzBoundaryData( 70 * KiB, 3 ) } ) {
        const auto block = formats::lz4CompressBlock( { input.data(), input.size() } );
        std::vector<std::uint8_t> decoded;
        formats::lz4DecompressBlock( { block.data(), block.size() }, decoded, 0, input.size() );
        REQUIRE( decoded == input );
    }

    /* Malformed blocks must throw, never crash or read out of bounds. */
    std::vector<std::uint8_t> out;
    /* Zero offset. */
    const std::vector<std::uint8_t> zeroOffset = { 0x10, 'a', 0x00, 0x00, 0x00 };
    REQUIRE_THROWS_AS( formats::lz4DecompressBlock( { zeroOffset.data(), zeroOffset.size() },
                                                    out, 0, 1024 ),
                       RapidgzipError );
    /* Offset beyond history. */
    out.clear();
    const std::vector<std::uint8_t> farOffset = { 0x10, 'a', 0xFF, 0x00, 0x00 };
    REQUIRE_THROWS_AS( formats::lz4DecompressBlock( { farOffset.data(), farOffset.size() },
                                                    out, 0, 1024 ),
                       RapidgzipError );
    /* Literal run past the end of the block. */
    out.clear();
    const std::vector<std::uint8_t> shortLiterals = { 0xF0, 0xFF };
    REQUIRE_THROWS_AS( formats::lz4DecompressBlock( { shortLiterals.data(),
                                                      shortLiterals.size() },
                                                    out, 0, 1024 ),
                       RapidgzipError );
    /* Output bound enforced (match expanding past maxOutput). */
    out.clear();
    const std::vector<std::uint8_t> expander = { 0x1F, 'a', 0x01, 0x00, 0xFF, 0xFF, 0xFF, 0x00 };
    REQUIRE_THROWS_AS( formats::lz4DecompressBlock( { expander.data(), expander.size() },
                                                    out, 0, 64 ),
                       RapidgzipError );
    /* Empty input. */
    out.clear();
    REQUIRE_THROWS_AS( formats::lz4DecompressBlock( {}, out, 0, 64 ), RapidgzipError );

    /* History (linked-block) decoding: a match reaching into prior output. */
    out.assign( { 'h', 'i', 's', 't' } );
    /* token: 0 literals, matchlen 4; offset 4 → copies "hist". */
    const std::vector<std::uint8_t> linked = { 0x00, 0x04, 0x00, 0x00 };
    formats::lz4DecompressBlock( { linked.data(), linked.size() }, out, 4, 1024 );
    REQUIRE( ( out == std::vector<std::uint8_t>{ 'h', 'i', 's', 't', 'h', 'i', 's', 't' } ) );
}

void
testLz4FrameReader()
{
    const auto data = workloads::lzBoundaryData( 300 * KiB, 0xF00D );
    const BufferView span{ data.data(), data.size() };
    const auto file = formats::writeLz4( span, formats::Lz4Writer::BlockMaxSize::KIB64 );

    ChunkFetcherConfiguration configuration;
    configuration.parallelism = 2;
    configuration.chunkSizeBytes = 64 * KiB;
    formats::Lz4Decompressor decompressor( std::make_unique<MemoryFileReader>( file ),
                                           configuration );
    REQUIRE( decompressor.format() == Format::LZ4 );
    REQUIRE( decompressor.parallelizable() );
    REQUIRE( decompressor.size() == data.size() );
    REQUIRE( !decompressor.seekPoints().empty() );

    /* readAt against ground truth at scattered offsets incl. boundaries. */
    std::uint8_t probe[512];
    for ( const std::size_t offset : { std::size_t( 0 ), std::size_t( 64 * KiB - 3 ),
                                       std::size_t( 64 * KiB ), data.size() / 2,
                                       data.size() - 100 } ) {
        const auto got = decompressor.readAt( offset, probe, sizeof( probe ) );
        REQUIRE( got == std::min<std::size_t>( sizeof( probe ), data.size() - offset ) );
        REQUIRE( std::equal( probe, probe + got, data.begin()
                             + static_cast<std::ptrdiff_t>( offset ) ) );
    }
    REQUIRE( decompressor.readAt( data.size(), probe, sizeof( probe ) ) == 0 );

    /* A flipped payload byte must be caught by the block checksum. */
    auto corrupt = file;
    corrupt[corrupt.size() / 2] ^= 0x01U;
    formats::Lz4Decompressor corruptReader( std::make_unique<MemoryFileReader>( corrupt ),
                                            configuration );
    REQUIRE_THROWS_AS( (void)corruptReader.decompress( {} ), RapidgzipError );

    /* A flipped header-descriptor byte must be caught by HC. */
    auto corruptHeader = file;
    corruptHeader[4] ^= 0x04U;  /* toggle C.Checksum flag in FLG */
    REQUIRE_THROWS_AS( formats::Lz4Decompressor( std::make_unique<MemoryFileReader>(
                                                     corruptHeader ), configuration ),
                       RapidgzipError );
}

#if defined( RAPIDGZIP_HAVE_VENDOR_ZSTD )
void
testZstdFrameReader()
{
    const auto data = workloads::base64Data( 300 * KiB, 0x5EED );
    const BufferView span{ data.data(), data.size() };

    ChunkFetcherConfiguration configuration;
    configuration.parallelism = 2;
    configuration.chunkSizeBytes = 64 * KiB;

    /* Seekable layout: table adopted, O(1) offsets (no decode for size). */
    {
        const auto file = formats::writeZstdSeekable( span, 3, 64 * KiB );
        formats::ZstdDecompressor decompressor( std::make_unique<MemoryFileReader>( file ),
                                                configuration );
        REQUIRE( decompressor.hasSeekTable() );
        REQUIRE( decompressor.parallelizable() );
        REQUIRE( decompressor.size() == data.size() );
        REQUIRE( decompressor.seekPoints().size() >= 2 );

        std::uint8_t probe[512];
        const auto got = decompressor.readAt( 123457, probe, sizeof( probe ) );
        REQUIRE( got == sizeof( probe ) );
        REQUIRE( std::equal( probe, probe + got, data.begin() + 123457 ) );
    }

    /* Plain multi-frame: sizes from frame headers, still parallel. */
    {
        const auto file = formats::writeZstdFrames( span, 3, 64 * KiB );
        formats::ZstdDecompressor decompressor( std::make_unique<MemoryFileReader>( file ),
                                                configuration );
        REQUIRE( !decompressor.hasSeekTable() );
        REQUIRE( decompressor.parallelizable() );
        REQUIRE( decompressor.size() == data.size() );
    }

    /* A flipped byte inside a frame: zstd's internal block structure (and
     * the exact-size check) must reject it on decode. */
    {
        auto corrupt = formats::writeZstdSeekable( span, 3, 64 * KiB );
        corrupt[100] ^= 0xFFU;
        formats::ZstdDecompressor decompressor( std::make_unique<MemoryFileReader>( corrupt ),
                                                configuration );
        REQUIRE_THROWS_AS( (void)decompressor.decompress( {} ), RapidgzipError );
    }
}
#endif

#if defined( RAPIDGZIP_HAVE_VENDOR_BZIP2 )
void
testBzip2Reader()
{
    const auto data = workloads::fastqData( 300 * KiB, 0xB217 );
    const BufferView span{ data.data(), data.size() };
    const auto file = formats::writeBzip2( span, 1 );

    ChunkFetcherConfiguration configuration;
    configuration.parallelism = 2;
    configuration.chunkSizeBytes = 64 * KiB;
    formats::Bzip2Decompressor decompressor( std::make_unique<MemoryFileReader>( file ),
                                             configuration );
    REQUIRE( decompressor.parallelizable() );
    REQUIRE( decompressor.blockCount() >= 2 );  /* level 1 → ~100 kB blocks */
    REQUIRE( decompressor.size() == data.size() );

    std::uint8_t probe[512];
    const auto offset = data.size() / 2;
    const auto got = decompressor.readAt( offset, probe, sizeof( probe ) );
    REQUIRE( got == sizeof( probe ) );
    REQUIRE( std::equal( probe, probe + got,
                         data.begin() + static_cast<std::ptrdiff_t>( offset ) ) );

    /* Seek points start at the first block magic, right after "BZh1". */
    {
        const auto points = decompressor.seekPoints();
        REQUIRE( !points.empty() );
        REQUIRE( points.front().compressedOffsetBits == 32 );
    }

    /* Damaged block payload: the parallel path's vendor decode or the CRC
     * chain must reject it, and the serial authority also throws — either
     * way decompress() must NOT return wrong bytes. */
    {
        auto corrupt = file;
        corrupt[corrupt.size() / 2] ^= 0x10U;
        formats::Bzip2Decompressor corruptReader(
            std::make_unique<MemoryFileReader>( corrupt ), configuration );
        try {
            std::vector<std::uint8_t> decoded;
            (void)corruptReader.decompress( [&decoded] ( BufferView view ) {
                decoded.insert( decoded.end(), view.begin(), view.end() );
            } );
            /* No exception is only acceptable if the flip landed in dead
             * padding bits and the output is still byte-exact. */
            REQUIRE( decoded == data );
        } catch ( const RapidgzipError& ) {
            /* expected: rejection */
        }
    }
}
#endif

/**
 * Seek points adopted from a sidecar that misstate a chunk's size must not
 * serve bytes from the wrong stream position: a read touching the
 * mis-sized chunk fails in the chunk walk, through readAt() and
 * readSpansAt() alike. Every point but the first moves by 4096 bytes, down
 * (chunk 0 understated, the last chunk overstated) or up (the reverse).
 * One read straddles chunk 0's recorded end; one lies in the last chunk,
 * where a walk that does not check sizes serves shifted bytes. lz4
 * surfaces the walk's error; bzip2 answers it with its serial authority,
 * so there the true bytes come back and the backend stops using its
 * parallel path.
 */
template<typename Backend, bool SERIAL_FALLBACK>
void
checkMisstatedSeekPoints( const std::vector<std::uint8_t>& archive,
                          const std::vector<std::uint8_t>& data )
{
    ChunkFetcherConfiguration configuration;
    configuration.parallelism = 2;
    const auto open = [&] {
        return std::make_unique<Backend>( std::make_unique<MemoryFileReader>( archive ), configuration );
    };
    const auto truth = open()->seekPoints();
    REQUIRE( truth.size() >= 3 );

    constexpr std::size_t LENGTH = 512;
    const auto readCopy = [] ( Backend& reader, std::size_t offset ) {
        std::vector<std::uint8_t> bytes( LENGTH );
        bytes.resize( reader.readAt( offset, bytes.data(), bytes.size() ) );
        return bytes;
    };
    const auto readSpans = [] ( Backend& reader, std::size_t offset ) {
        std::vector<OwnedSpan> spans;
        (void)reader.readSpansAt( offset, LENGTH, spans );
        std::vector<std::uint8_t> bytes;
        for ( const auto& span : spans ) {
            bytes.insert( bytes.end(), span.data, span.data + span.size );
        }
        return bytes;
    };

    for ( const auto shift : { -4096L, 4096L } ) {
        auto points = truth;
        for ( std::size_t i = 1; i < points.size(); ++i ) {
            points[i].uncompressedOffset = static_cast<std::size_t>(
                static_cast<long>( points[i].uncompressedOffset ) + shift );
        }
        using Read = std::function<std::vector<std::uint8_t>( Backend&, std::size_t )>;
        for ( const auto offset : { points[1].uncompressedOffset - LENGTH / 2,
                                    points.back().uncompressedOffset + LENGTH } ) {
            const std::vector<std::uint8_t> expected(
                data.begin() + static_cast<std::ptrdiff_t>( offset ),
                data.begin() + static_cast<std::ptrdiff_t>( offset + LENGTH ) );
            for ( const auto& read : { Read( readCopy ), Read( readSpans ) } ) {
                auto reader = open();
                REQUIRE( reader->importSeekPoints( points, data.size() ) );
                if constexpr ( SERIAL_FALLBACK ) {
                    /* The switch to the serial decode is counted, once. */
                    auto& registry = telemetry::Registry::instance();
                    telemetry::setMetricsEnabled( true );
                    const auto fallbacks = registry.counterTotal( "rapidgzip_fallback_total" );
                    REQUIRE( read( *reader, offset ) == expected );
                    REQUIRE( !reader->parallelizable() );
                    REQUIRE( read( *reader, offset ) == expected );
                    telemetry::setMetricsEnabled( false );
                    REQUIRE( registry.counterTotal( "rapidgzip_fallback_total" ) == fallbacks + 1 );
                    REQUIRE( registry.counter( "rapidgzip_fallback_total", {},
                                               "path=\"bzip2_parallel\","
                                               "reason=\"chunk_walk_error\"" ).total() > 0 );
                } else {
                    REQUIRE_THROWS_AS( (void)read( *reader, offset ), RapidgzipError );
                }
            }
        }
    }
}

void
testMisstatedSeekPoints()
{
    {
        const auto data = workloads::silesiaLikeData( 2 * MiB, 0x5EC );
        checkMisstatedSeekPoints<formats::Lz4Decompressor, false>(
            formats::writeLz4( { data.data(), data.size() }, formats::Lz4Writer::BlockMaxSize::KIB64 ),
            data );
    }
#if defined( RAPIDGZIP_HAVE_VENDOR_BZIP2 )
    {
        const auto data = workloads::fastqData( 1 * MiB, 0xB2C );
        checkMisstatedSeekPoints<formats::Bzip2Decompressor, true>(
            formats::writeBzip2( { data.data(), data.size() }, 1 ), data );
    }
#endif
}

void
testFrameParallelReaderGrouping()
{
    /* Synthetic decoder: frame i yields i+1 bytes of value i. Exercises
     * grouping, ordered traversal, offset bookkeeping, and readAt. */
    std::vector<CompressedFrame> frames;
    for ( std::size_t i = 0; i < 10; ++i ) {
        CompressedFrame frame;
        frame.compressedBeginBits = i * 1000 * 8;
        frame.compressedEndBits = ( i + 1 ) * 1000 * 8;
        frames.push_back( frame );
    }
    ChunkFetcherConfiguration configuration;
    configuration.parallelism = 2;
    configuration.chunkSizeBytes = 64 * KiB;  /* floor → 64 KiB chunks */

    auto file = std::make_shared<const MemoryFileReader>(
        std::vector<std::uint8_t>( 10 * 1000, 0 ) );
    FrameParallelReader reader(
        file, frames,
        [] ( const FileReader&, const CompressedFrame& frame, std::size_t index,
             std::vector<std::uint8_t>& out ) {
            (void)frame;
            out.insert( out.end(), index + 1, static_cast<std::uint8_t>( index ) );
        },
        configuration );

    std::vector<std::uint8_t> all;
    const auto total = reader.decompress( [&all] ( BufferView span ) {
        all.insert( all.end(), span.begin(), span.end() );
    } );
    REQUIRE( total == 55 );  /* 1 + 2 + ... + 10 */
    REQUIRE( all.size() == 55 );
    std::size_t cursor = 0;
    for ( std::size_t i = 0; i < 10; ++i ) {
        for ( std::size_t j = 0; j < i + 1; ++j ) {
            REQUIRE( all[cursor++] == static_cast<std::uint8_t>( i ) );
        }
    }

    std::uint8_t probe[8];
    REQUIRE( reader.readAt( 0, probe, 1 ) == 1 );
    REQUIRE( probe[0] == 0 );
    REQUIRE( reader.readAt( 54, probe, 8 ) == 1 );  /* last byte only */
    REQUIRE( probe[0] == 9 );
    REQUIRE( reader.readAt( 55, probe, 8 ) == 0 );
}

}  // namespace

int
main()
{
    testDetectFormat();
    testXxHash32();
    testLz4BlockCodec();
    testLz4FrameReader();
#if defined( RAPIDGZIP_HAVE_VENDOR_ZSTD )
    testZstdFrameReader();
#endif
#if defined( RAPIDGZIP_HAVE_VENDOR_BZIP2 )
    testBzip2Reader();
#endif
    testFrameParallelReaderGrouping();
    testMisstatedSeekPoints();
    return rapidgzip::test::finish( "testFormats" );
}
