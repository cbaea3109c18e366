/**
 * core layer: ParallelGzipReader must reproduce the serial decoder's output
 * exactly — decompressAll counts, random access reads, index export/import,
 * prefetch statistics, multi-member streams, and single-chunk files without
 * any flush markers — and must never serve bytes that fail footer
 * verification.
 */

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "core/ParallelGzipReader.hpp"
#include "gzip/ZlibCompressor.hpp"
#include "io/MemoryFileReader.hpp"
#include "telemetry/Registry.hpp"
#include "workloads/DataGenerators.hpp"

#include "TestHelpers.hpp"

using namespace rapidgzip;

namespace {

ChunkFetcherConfiguration
config( std::size_t parallelism, std::size_t chunkSize )
{
    ChunkFetcherConfiguration result;
    result.parallelism = parallelism;
    result.chunkSizeBytes = chunkSize;
    return result;
}

void
checkFullRead( const std::vector<std::uint8_t>& original,
               const std::vector<std::uint8_t>& compressed,
               const ChunkFetcherConfiguration& configuration )
{
    ParallelGzipReader reader( std::make_unique<MemoryFileReader>( compressed ), configuration );
    REQUIRE( reader.decompressAll() == original.size() );

    /* read() must return the exact bytes. */
    ParallelGzipReader byteReader( std::make_unique<MemoryFileReader>( compressed ),
                                   configuration );
    std::vector<std::uint8_t> reassembled( original.size() + 16 );
    const auto got = byteReader.read( reassembled.data(), reassembled.size() );
    reassembled.resize( got );
    REQUIRE( reassembled == original );
}

}  // namespace

int
main()
{
    const auto data = workloads::base64Data( 8 * MiB + 4321, 0xF00D );
    const auto compressed = compressPigzLike( { data.data(), data.size() }, 6, 128 * 1024 );

    /* Several parallelism/chunk-size combinations. */
    checkFullRead( data, compressed, config( 4, 256 * 1024 ) );
    checkFullRead( data, compressed, config( 1, 64 * 1024 ) );
    checkFullRead( data, compressed, config( 8, 4 * MiB ) );

    /* Gzip-like stream without a single flush marker: the full-flush table
     * degenerates to one chunk, but decompressAll routes through the
     * two-stage pipeline and decodes in parallel anyway. Verify the actual
     * BYTES against the serial zlib decode (the chunk fetcher's CRC check
     * against the footer is cross-validated by the same comparison). */
    {
        const auto plain = compressGzipLike( { data.data(), data.size() }, 6 );
        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( plain ),
                                   config( 4, 1 * MiB ) );
        REQUIRE( reader.chunkCount() == 1 );
        REQUIRE( reader.decompressAll() == data.size() );

        const auto serial = decompressWithZlib( { plain.data(), plain.size() } );
        std::vector<std::uint8_t> parallel;
        MemoryFileReader file( plain );
        const auto deflateStart = parseGzipHeader( { plain.data(), plain.size() } );
        telemetry::setMetricsEnabled( true );
        const auto redecodesBefore =
            telemetry::Registry::instance().counterTotal( "rapidgzip_chunk_redecodes_total" );
        index::IndexBuilder builder;
        std::vector<DecodedChunk> chunks;
        const auto member = GzipChunkFetcher::decompressMember(
            file, deflateStart, /* parallelism */ 4, /* chunk size */ 1 * MiB, &builder, &chunks,
            std::numeric_limits<std::size_t>::max() );
        for ( const auto& chunk : chunks ) {
            parallel.insert( parallel.end(), chunk.data.begin(), chunk.data.end() );
        }
        telemetry::setMetricsEnabled( false );
        REQUIRE( member.chunkCount > 1 );
        /* Most chunks must come from the SPECULATIVE guessed-offset decode —
         * if the block finders regressed, every chunk would silently fall
         * back to the sequential re-decode and parallelism would be dead. */
        REQUIRE( member.redecodedChunks < member.chunkCount / 2 );
        /* The mis-stitch telemetry counter must agree with the member's own
         * tally — the live counter is what /metrics and dashboards see. */
        REQUIRE( telemetry::Registry::instance().counterTotal( "rapidgzip_chunk_redecodes_total" )
                 == redecodesBefore + member.redecodedChunks );
        REQUIRE( parallel == serial );
        REQUIRE( parallel == data );

        /* A flipped byte must be caught by the footer verification, not
         * returned as silently corrupt output. */
        auto corrupted = plain;
        corrupted[corrupted.size() / 2] ^= 0x10U;
        ParallelGzipReader corruptedReader( std::make_unique<MemoryFileReader>( corrupted ),
                                            config( 4, 1 * MiB ) );
        REQUIRE_THROWS_AS( (void)corruptedReader.decompressAll(), RapidgzipError );
    }

    /* Full-flush archives decode every chunk at an EXACT known offset, so
     * the mis-stitch re-decode path must never trigger: its telemetry
     * counter has to stay flat across a complete read. A drift here means
     * the chunk table or the stitcher regressed into speculative fallbacks
     * on the easy case. */
    {
        telemetry::setMetricsEnabled( true );
        const auto redecodesBefore =
            telemetry::Registry::instance().counterTotal( "rapidgzip_chunk_redecodes_total" );
        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( compressed ),
                                   config( 4, 256 * 1024 ) );
        REQUIRE( reader.decompressAll() == data.size() );
        telemetry::setMetricsEnabled( false );
        REQUIRE( telemetry::Registry::instance().counterTotal( "rapidgzip_chunk_redecodes_total" )
                 == redecodesBefore );
    }

    /* Random access: seek + read against the reference data. */
    {
        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( compressed ),
                                   config( 4, 256 * 1024 ) );
        REQUIRE( reader.size() == data.size() );

        Xorshift64 random( 0xACCE55 );
        std::vector<std::uint8_t> buffer( 70000 );
        for ( int i = 0; i < 25; ++i ) {
            const auto offset = random.below( data.size() );
            const auto length = 1 + random.below( buffer.size() );
            reader.seek( offset );
            REQUIRE( reader.tell() == offset );
            const auto got = reader.read( buffer.data(), length );
            REQUIRE( got == std::min( length, data.size() - offset ) );
            REQUIRE( std::memcmp( buffer.data(), data.data() + offset, got ) == 0 );
        }

        /* Reads at and past the end. */
        reader.seek( data.size() );
        REQUIRE( reader.read( buffer.data(), buffer.size() ) == 0 );
        reader.seek( data.size() + 12345 );
        REQUIRE( reader.read( buffer.data(), buffer.size() ) == 0 );

        /* Sequential reads after a seek continue from tell(). */
        reader.seek( 1000 );
        REQUIRE( reader.read( buffer.data(), 100 ) == 100 );
        REQUIRE( reader.tell() == 1100 );
        REQUIRE( reader.read( buffer.data(), 100 ) == 100 );
        REQUIRE( std::memcmp( buffer.data(), data.data() + 1100, 100 ) == 0 );
    }

    /* Index export/import: same chunking, same bytes, discovery skipped. */
    {
        GzipIndex index;
        {
            ParallelGzipReader builder( std::make_unique<MemoryFileReader>( compressed ),
                                        config( 4, 256 * 1024 ) );
            index = builder.exportIndex();
        }
        REQUIRE( !index.empty() );
        REQUIRE( index.uncompressedSizeBytes == data.size() );
        REQUIRE( index.compressedSizeBytes == compressed.size() );
        REQUIRE( index.checkpoints.front().uncompressedOffset == 0 );
        /* Full-flush checkpoints are restart points: byte-aligned, windowless. */
        for ( const auto& checkpoint : index.checkpoints ) {
            REQUIRE( checkpoint.compressedOffsetBits % 8 == 0 );
        }
        REQUIRE( index.windows.size() == 0 );

        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( compressed ),
                                   config( 4, 256 * 1024 ) );
        reader.importIndex( index );
        REQUIRE( reader.decompressAll() == data.size() );

        ParallelGzipReader byteReader( std::make_unique<MemoryFileReader>( compressed ),
                                       config( 4, 256 * 1024 ) );
        byteReader.importIndex( index );
        std::vector<std::uint8_t> buffer( 50000 );
        byteReader.seek( data.size() / 2 );
        const auto got = byteReader.read( buffer.data(), buffer.size() );
        REQUIRE( got == buffer.size() );
        REQUIRE( std::memcmp( buffer.data(), data.data() + data.size() / 2, got ) == 0 );

        /* Importing a mismatched or inconsistent index is rejected. */
        GzipIndex wrong = index;
        wrong.compressedSizeBytes += 1;
        ParallelGzipReader rejecting( std::make_unique<MemoryFileReader>( compressed ),
                                      config( 2, 256 * 1024 ) );
        REQUIRE_THROWS_AS( rejecting.importIndex( wrong ), RapidgzipError );

        GzipIndex skewed = index;
        skewed.checkpoints.front().uncompressedOffset = 1;  /* must start at 0 */
        REQUIRE_THROWS_AS( rejecting.importIndex( skewed ), RapidgzipError );

        if ( index.checkpoints.size() > 1 ) {
            GzipIndex unsorted = index;
            unsorted.checkpoints[1].compressedOffsetBits =
                unsorted.checkpoints[0].compressedOffsetBits;  /* not increasing */
            REQUIRE_THROWS_AS( rejecting.importIndex( unsorted ), RapidgzipError );
        }
    }

    /* Trailing padding after the footer (tar/tape style) must not break
     * verification: the footer sits after the final Deflate byte, not at
     * the file end. */
    {
        auto padded = compressed;
        padded.insert( padded.end(), 512, 0 );
        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( padded ),
                                   config( 4, 256 * 1024 ) );
        REQUIRE( reader.decompressAll() == data.size() );
    }

    /* Truncated streams must raise, not silently return a partial count —
     * on both the decompressAll and the read/size (offset discovery) path. */
    {
        auto truncated = compressed;
        truncated.resize( truncated.size() / 2 );
        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( truncated ),
                                   config( 4, 256 * 1024 ) );
        REQUIRE_THROWS_AS( (void)reader.decompressAll(), RapidgzipError );

        ParallelGzipReader sizeReader( std::make_unique<MemoryFileReader>( truncated ),
                                       config( 4, 256 * 1024 ) );
        REQUIRE_THROWS_AS( (void)sizeReader.size(), RapidgzipError );
    }

    /* Fetcher statistics: a sequential sweep must mostly hit prefetches. */
    {
        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( compressed ),
                                   config( 4, 256 * 1024 ) );
        REQUIRE( reader.decompressAll() == data.size() );
        const auto& stats = reader.fetcherStatistics();
        REQUIRE( stats.prefetchDispatched > 0 );
        REQUIRE( stats.prefetchHits > 0 );
        REQUIRE( stats.onDemandDecodes >= 1 );
        REQUIRE( stats.prefetchHits + stats.onDemandDecodes >= reader.chunkCount() );
    }

    /* Multi-member stream (concatenated pigz members). */
    {
        const auto extra = workloads::fastqData( 2 * MiB, 0xFA57 );
        auto concatenated = compressPigzLike( { data.data(), data.size() }, 6, 256 * 1024 );
        const auto second = compressPigzLike( { extra.data(), extra.size() }, 6, 256 * 1024 );
        concatenated.insert( concatenated.end(), second.begin(), second.end() );

        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( concatenated ),
                                   config( 4, 512 * 1024 ) );
        REQUIRE( reader.decompressAll() == data.size() + extra.size() );

        auto expected = data;
        expected.insert( expected.end(), extra.begin(), extra.end() );
        ParallelGzipReader byteReader( std::make_unique<MemoryFileReader>( concatenated ),
                                       config( 4, 512 * 1024 ) );
        std::vector<std::uint8_t> reassembled( expected.size() );
        REQUIRE( byteReader.read( reassembled.data(), reassembled.size() ) == expected.size() );
        REQUIRE( reassembled == expected );
    }

    /* Incompressible data: stored blocks may contain fake sync markers; the
     * probe/merge/verify layers must still produce the exact stream. */
    {
        const auto noise = workloads::randomData( 4 * MiB, 0x707 );
        const auto compressedNoise = compressPigzLike( { noise.data(), noise.size() }, 6,
                                                       128 * 1024 );
        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( compressedNoise ),
                                   config( 4, 256 * 1024 ) );
        REQUIRE( reader.decompressAll() == noise.size() );

        ParallelGzipReader byteReader( std::make_unique<MemoryFileReader>( compressedNoise ),
                                       config( 4, 256 * 1024 ) );
        std::vector<std::uint8_t> reassembled( noise.size() );
        REQUIRE( byteReader.read( reassembled.data(), reassembled.size() ) == noise.size() );
        REQUIRE( reassembled == noise );
    }

    /* Random access on a full-flush stream is footer-verified too: size
     * discovery runs the same verified pass as decompressAll(). One flipped
     * payload bit in a stored block decodes cleanly to one wrong byte; only
     * the member's CRC32 can catch it. */
    {
        const auto noise = workloads::randomData( 4 * MiB, 0xF1A9 );
        auto flipped = compressPigzLike( { noise.data(), noise.size() }, 6, 256 * KiB );
        /* Stored blocks hold the input verbatim: find a byte of it past the
         * middle in the compressed stream. */
        const auto target = noise.size() * 3 / 4;
        const auto match = std::search( flipped.begin(), flipped.end(),
                                        noise.begin() + static_cast<std::ptrdiff_t>( target ),
                                        noise.begin() + static_cast<std::ptrdiff_t>( target + 64 ) );
        REQUIRE( match != flipped.end() );
        *match ^= 0x04U;

        ParallelGzipReader sizeReader( std::make_unique<MemoryFileReader>( flipped ),
                                       config( 4, 256 * KiB ) );
        REQUIRE_THROWS_AS( (void)sizeReader.size(), ChecksumError );

        std::vector<std::uint8_t> buffer( 128 * KiB );
        ParallelGzipReader byteReader( std::make_unique<MemoryFileReader>( flipped ),
                                       config( 4, 256 * KiB ) );
        byteReader.seek( target - 1000 );
        REQUIRE_THROWS_AS( (void)byteReader.read( buffer.data(), buffer.size() ), ChecksumError );

        ParallelGzipReader countReader( std::make_unique<MemoryFileReader>( flipped ),
                                        config( 4, 256 * KiB ) );
        REQUIRE_THROWS_AS( (void)countReader.decompressAll(), RapidgzipError );

        /* Without verification the bytes are served as decoded. */
        ParallelGzipReader unverified( std::make_unique<MemoryFileReader>( flipped ),
                                       config( 4, 256 * KiB ) );
        unverified.setVerifyChecksums( false );
        REQUIRE( unverified.size() == noise.size() );
        auto expected = noise;
        expected[target] ^= 0x04U;
        std::vector<std::uint8_t> reassembled( noise.size() );
        REQUIRE( unverified.read( reassembled.data(), reassembled.size() ) == noise.size() );
        REQUIRE( reassembled == expected );
    }

    /* setVerifyChecksums(false) still returns the right count. */
    {
        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( compressed ),
                                   config( 4, 256 * 1024 ) );
        reader.setVerifyChecksums( false );
        REQUIRE( reader.decompressAll() == data.size() );
    }

    return rapidgzip::test::finish( "testParallelGzipReader" );
}
