/**
 * deflate layer: the from-scratch two-stage decoder must reproduce zlib's
 * output exactly on every synthetic workload — from the stream start with an
 * empty window, and from arbitrary mid-stream block offsets with marker
 * replacement. The §3.3 fallback must trigger where back-references die out
 * (base64) and must NOT trigger where markers persist (FASTQ's long-range
 * header repeats), and marker replacement itself must honor the window
 * indexing convention end to end.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include <zlib.h>

#include "blockfinder/DynamicBlockFinderNaive.hpp"
#include "blockfinder/NonCompressedBlockFinder.hpp"
#include "deflate/DecodedData.hpp"
#include "deflate/DeflateDecoder.hpp"
#include "gzip/DeflateBlockWriter.hpp"
#include "gzip/GzipHeader.hpp"
#include "gzip/ZlibCompressor.hpp"
#include "workloads/DataGenerators.hpp"

#include "TestHelpers.hpp"
#include "VendorLibdeflate.hpp"

using namespace rapidgzip;

namespace {

[[nodiscard]] BufferView
deflateStream( const std::vector<std::uint8_t>& gz )
{
    const auto start = parseGzipHeader( { gz.data(), gz.size() } );
    return { gz.data() + start, gz.size() - start };
}

/** Serial decode with the custom decoder (known empty window) vs reference. */
void
checkSerialRoundTrip( const std::vector<std::uint8_t>& data, int level )
{
    const auto gz = compressGzipLike( { data.data(), data.size() }, level );
    const auto stream = deflateStream( gz );

    BitReader reader( stream.data(), stream.size() );
    deflate::Decoder decoder;
    decoder.setInitialWindow( {} );
    deflate::DecodedData decoded;
    const auto result = decoder.decode( reader, decoded );

    REQUIRE( result.error == Error::NONE );
    REQUIRE( result.reachedFinalBlock );
    REQUIRE( result.blockCount > 0 );
    REQUIRE( decoded.marked.empty() );  /* known window => no 16-bit stage */

    std::vector<std::uint8_t> resolved;
    deflate::resolveInto( decoded, {}, resolved );
    REQUIRE( resolved == data );

    /* The reported end boundary must point at the footer. */
    const auto footerByte = ceilDiv<std::size_t>( result.endBitOffset, 8 );
    REQUIRE( footerByte + GZIP_FOOTER_SIZE <= stream.size() );
    const auto footer = parseGzipFooter( stream, footerByte + GZIP_FOOTER_SIZE );
    REQUIRE( footer.uncompressedSizeModulo32 == static_cast<std::uint32_t>( data.size() ) );
}

/**
 * Windowless decode from a mid-stream block offset; after replaceMarkers
 * with the true window the bytes must equal the serial decode's tail.
 * Returns the decoded data for fallback-behavior assertions.
 */
[[nodiscard]] deflate::DecodedData
checkMidStreamStart( const std::vector<std::uint8_t>& data )
{
    const auto gz = compressGzipLike( { data.data(), data.size() }, 6 );
    const auto stream = deflateStream( gz );

    const blockfinder::DynamicBlockFinderNaive finder;
    const auto blockBit = finder.find( stream, stream.size() / 2 * 8 );
    REQUIRE( blockBit != blockfinder::NOT_FOUND );

    BitReader reader( stream.data(), stream.size() );
    reader.seek( blockBit );
    deflate::Decoder decoder;
    deflate::DecodedData decoded;
    const auto result = decoder.decode( reader, decoded );
    REQUIRE( result.error == Error::NONE );
    REQUIRE( result.reachedFinalBlock );

    const auto total = decoded.totalSize();
    REQUIRE( total > 0 );
    REQUIRE( total < data.size() );
    const auto tailStart = data.size() - total;
    REQUIRE( tailStart >= deflate::WINDOW_SIZE );

    const BufferView window( data.data() + tailStart - deflate::WINDOW_SIZE,
                             deflate::WINDOW_SIZE );
    std::vector<std::uint8_t> resolved;
    deflate::resolveInto( decoded, window, resolved );
    REQUIRE( std::equal( resolved.begin(), resolved.end(), data.begin() + tailStart ) );
    return decoded;
}

/** Fixed-Huffman (BTYPE 01) block writer for hand-built streams. */
class FixedBlockWriter
{
public:
    explicit FixedBlockWriter( std::vector<std::uint8_t>& output ) :
        m_writer( output )
    {}

    void
    beginBlock( bool isFinal )
    {
        m_writer.writeBits( isFinal ? 1U : 0U, 1 );
        m_writer.writeBits( 1, 2 );
    }

    void
    literal( std::uint8_t byte )
    {
        writeSymbol( byte );
    }

    void
    match( std::size_t length, std::size_t distance )
    {
        auto lengthIndex = deflate::LENGTH_BASE.size() - 1;
        while ( deflate::LENGTH_BASE[lengthIndex] > length ) {
            --lengthIndex;
        }
        writeSymbol( static_cast<unsigned>( 257 + lengthIndex ) );
        m_writer.writeBits( static_cast<std::uint32_t>( length - deflate::LENGTH_BASE[lengthIndex] ),
                            deflate::LENGTH_EXTRA_BITS[lengthIndex] );
        auto distanceIndex = deflate::DISTANCE_BASE.size() - 1;
        while ( deflate::DISTANCE_BASE[distanceIndex] > distance ) {
            --distanceIndex;
        }
        m_writer.writeCode( static_cast<std::uint32_t>( distanceIndex ), 5 );
        m_writer.writeBits( static_cast<std::uint32_t>( distance - deflate::DISTANCE_BASE[distanceIndex] ),
                            deflate::DISTANCE_EXTRA_BITS[distanceIndex] );
    }

    void
    endBlock()
    {
        writeSymbol( deflate::END_OF_BLOCK );
    }

    void
    finish()
    {
        m_writer.alignToByte();
    }

private:
    /** RFC 1951 §3.2.6 fixed literal/length codes. */
    void
    writeSymbol( unsigned symbol )
    {
        if ( symbol < 144 ) {
            m_writer.writeCode( 0x30U + symbol, 8 );
        } else if ( symbol < 256 ) {
            m_writer.writeCode( 0x190U + ( symbol - 144U ), 9 );
        } else if ( symbol < 280 ) {
            m_writer.writeCode( symbol - 256U, 7 );
        } else {
            m_writer.writeCode( 0xC0U + ( symbol - 280U ), 8 );
        }
    }

    deflatewriter::LsbBitWriter m_writer;
};

/**
 * A windowless stream whose first block ends where the §3.3 fallback
 * depends on the LAST marker a match copied: 258 markers are created at
 * positions 0..257 and copied by one match with @p copyDistance to
 * 258..515, then plain 'a's fill the block to 258 + 32768 + 100 symbols.
 * The trailing window then still holds markers (from 358 on), so a
 * decoder must not fall back; one whose marker clock stopped at the
 * first copied marker (258) or before the copy (257) would. The final
 * block copies some of those markers again.
 */
[[nodiscard]] std::vector<std::uint8_t>
markerClockStream( std::size_t copyDistance )
{
    constexpr std::size_t BLOCK_END = 258 + deflate::WINDOW_SIZE + 100;
    std::vector<std::uint8_t> stream;
    FixedBlockWriter writer( stream );
    writer.beginBlock( false );
    writer.match( 258, deflate::WINDOW_SIZE );
    writer.match( 258, copyDistance );
    writer.literal( 'a' );
    for ( auto position = 2 * std::size_t( 258 ) + 1; position < BLOCK_END; ) {
        const auto length = std::min<std::size_t>( 258, BLOCK_END - position );
        writer.match( length, 1 );
        position += length;
    }
    writer.endBlock();
    writer.beginBlock( true );
    writer.match( 10, BLOCK_END - 400 );
    for ( int i = 0; i < 64; ++i ) {
        writer.literal( static_cast<std::uint8_t>( 'b' + i % 16 ) );
    }
    writer.endBlock();
    writer.finish();
    return stream;
}


/** Raw Deflate (no gzip framing) at zlib @p level and @p memLevel: memLevel
 * 1 shrinks zlib's symbol buffer to 128 entries, so blocks are tiny and the
 * stream is dominated by Dynamic headers. */
[[nodiscard]] std::vector<std::uint8_t>
compressRawDeflate( const std::vector<std::uint8_t>& data, int level, int memLevel )
{
    z_stream stream{};
    REQUIRE( deflateInit2( &stream, level, Z_DEFLATED, -15, memLevel, Z_DEFAULT_STRATEGY )
             == Z_OK );
    std::vector<std::uint8_t> result( deflateBound( &stream, static_cast<uLong>( data.size() ) ) );
    stream.next_in = const_cast<Bytef*>( data.data() );
    stream.avail_in = static_cast<uInt>( data.size() );
    stream.next_out = result.data();
    stream.avail_out = static_cast<uInt>( result.size() );
    REQUIRE( ::deflate( &stream, Z_FINISH ) == Z_STREAM_END );
    result.resize( stream.total_out );
    deflateEnd( &stream );
    return result;
}

/**
 * Dynamic blocks whose literal/length AND distance codes reach 15 bits,
 * with every coded symbol drawn uniformly so the long codes (subtable
 * entries of the decoder's packed tables) occur constantly: literals,
 * lengths with all extra-bit widths, distances from 1 bit up to 15-bit codes
 * with extra bits. Distances never exceed the output so far, so the stream
 * decodes with an empty window. Returns the stream and its decoded bytes.
 */
[[nodiscard]] std::pair<std::vector<std::uint8_t>, std::vector<std::uint8_t> >
longCodeStream( std::uint64_t seed )
{
    Xorshift64 random( seed );
    std::vector<std::uint8_t> stream;
    std::vector<std::uint8_t> decoded;
    deflatewriter::LsbBitWriter writer( stream );

    const auto canonical = [] ( const std::vector<std::uint8_t>& lengths ) {
        std::vector<std::uint32_t> codes( lengths.size() );
        std::uint32_t countPerLength[16] = {};
        for ( const auto length : lengths ) {
            ++countPerLength[length];
        }
        countPerLength[0] = 0;
        std::uint32_t next[16] = {};
        for ( unsigned length = 1, code = 0; length <= 15; ++length ) {
            code = ( code + countPerLength[length - 1] ) << 1U;
            next[length] = code;
        }
        for ( std::size_t symbol = 0; symbol < lengths.size(); ++symbol ) {
            codes[symbol] = lengths[symbol] > 0 ? next[lengths[symbol]]++ : 0;
        }
        return codes;
    };

    for ( int block = 0; block < 3; ++block ) {
        /* Literal/length: split-then-extend to a complete code over all 286
         * symbols, capped at 15 bits; distance: 1, 2, ..., 15, 15 bits. */
        std::vector<std::uint8_t> literalLengths( 286, 0 );
        literalLengths[0] = 1;
        literalLengths[1] = 1;
        for ( std::size_t used = 2; used < literalLengths.size(); ) {
            const auto victim = random.below( used );
            if ( literalLengths[victim] < 15 ) {
                literalLengths[used++] = ++literalLengths[victim];
            }
        }
        REQUIRE( *std::max_element( literalLengths.begin(), literalLengths.end() ) == 15 );
        std::vector<std::uint8_t> distanceLengths( 30, 0 );
        for ( unsigned i = 0; i < 15; ++i ) {
            distanceLengths[( i + block ) % 16] = static_cast<std::uint8_t>( i + 1 );
        }
        distanceLengths[( 15 + block ) % 16] = 15;
        const auto literalCodes = canonical( literalLengths );
        const auto distanceCodes = canonical( distanceLengths );

        writer.writeBits( block == 2 ? 1 : 0, 1 );
        writer.writeBits( 2, 2 );
        writer.writeBits( 286 - 257, 5 );
        writer.writeBits( 30 - 1, 5 );
        writer.writeBits( 19 - 4, 4 );
        /* Precode: code-length symbols 0..15 at 4 bits each (complete). */
        for ( const auto symbol : deflate::PRECODE_ORDER ) {
            writer.writeBits( symbol < 16 ? 4 : 0, 3 );
        }
        for ( const auto lengths : { &literalLengths, &distanceLengths } ) {
            for ( const auto length : *lengths ) {
                writer.writeCode( length, 4 );
            }
        }

        for ( int event = 0; event < 3000; ++event ) {
            auto symbol = random.below( 286 );
            if ( symbol == deflate::END_OF_BLOCK ) {
                continue;
            }
            if ( symbol > 256 ) {
                const auto lengthIndex = symbol - 257;
                const auto lengthExtra = deflate::LENGTH_EXTRA_BITS[lengthIndex];
                const auto lengthExtraValue = static_cast<std::uint32_t>(
                    random.below( std::size_t( 1 ) << lengthExtra ) );
                std::size_t distanceSymbol = 0;
                do {
                    distanceSymbol = random.below( 16 );
                } while ( distanceLengths[distanceSymbol] == 0 );
                const auto distanceExtra = deflate::DISTANCE_EXTRA_BITS[distanceSymbol];
                const auto distanceExtraValue = static_cast<std::uint32_t>(
                    random.below( std::size_t( 1 ) << distanceExtra ) );
                const std::size_t distance = deflate::DISTANCE_BASE[distanceSymbol]
                                             + distanceExtraValue;
                if ( distance <= decoded.size() ) {
                    writer.writeCode( literalCodes[symbol], literalLengths[symbol] );
                    writer.writeBits( lengthExtraValue, lengthExtra );
                    writer.writeCode( distanceCodes[distanceSymbol],
                                      distanceLengths[distanceSymbol] );
                    writer.writeBits( distanceExtraValue, distanceExtra );
                    const auto length = deflate::LENGTH_BASE[lengthIndex] + lengthExtraValue;
                    for ( std::size_t i = 0; i < length; ++i ) {
                        decoded.push_back( decoded[decoded.size() - distance] );
                    }
                    continue;
                }
                symbol = random.below( 256 );
            }
            writer.writeCode( literalCodes[symbol], literalLengths[symbol] );
            decoded.push_back( static_cast<std::uint8_t>( symbol ) );
        }
        writer.writeCode( literalCodes[deflate::END_OF_BLOCK],
                          literalLengths[deflate::END_OF_BLOCK] );
    }
    writer.alignToByte();
    return { stream, decoded };
}

struct LockstepRun
{
    std::vector<deflate::Decoder::Result> results;
    std::vector<bool> plainAfterBlock;
    deflate::DecodedData data;
};

/**
 * Fast loop vs reference loop, block by block from @p fromBit: every
 * per-block Result (error, endBitOffset, blockCount, BFINAL) must match,
 * and so must the block after which the decoder switches to 8-bit output,
 * stopping at the first error (truncated inputs) or the final block. When
 * every block decoded, the output must match too: marker symbols, plain
 * segments, and their split. Returns the fast run.
 */
[[nodiscard]] LockstepRun
decodeLockstep( BufferView stream, std::size_t fromBit, bool windowKnown,
                bool startAtStoredData = false )
{
    std::vector<LockstepRun> runs;
    for ( const bool reference : { false, true } ) {
        LockstepRun run;
        BitReader reader( stream.data(), stream.size() );
        reader.seek( fromBit );
        deflate::Decoder decoder;
        decoder.setReferenceHuffmanDecoding( reference );
        decoder.setStartAtStoredData( startAtStoredData );
        if ( windowKnown ) {
            decoder.setInitialWindow( {} );
        }
        while ( true ) {
            const auto result = decoder.decode( reader, run.data, reader.tell() + 1 );
            decoder.setStartAtStoredData( false );  /* applies to the first block only */
            run.results.push_back( result );
            run.plainAfterBlock.push_back( decoder.inPlainMode() );
            if ( ( result.error != Error::NONE ) || result.reachedFinalBlock ) {
                break;
            }
            reader.seek( result.endBitOffset );
        }
        runs.push_back( std::move( run ) );
    }
    const auto& fast = runs[0];
    const auto& reference = runs[1];
    REQUIRE( fast.results.size() == reference.results.size() );
    for ( std::size_t i = 0; i < fast.results.size(); ++i ) {
        REQUIRE( fast.results[i].error == reference.results[i].error );
        REQUIRE( fast.results[i].endBitOffset == reference.results[i].endBitOffset );
        REQUIRE( fast.results[i].blockCount == reference.results[i].blockCount );
        REQUIRE( fast.results[i].reachedFinalBlock == reference.results[i].reachedFinalBlock );
    }
    REQUIRE( fast.plainAfterBlock == reference.plainAfterBlock );
    if ( fast.results.back().error == Error::NONE ) {
        REQUIRE( fast.data.marked.size() == reference.data.marked.size() );
        REQUIRE( std::equal( fast.data.marked.begin(), fast.data.marked.end(),
                             reference.data.marked.begin() ) );
        REQUIRE( fast.data.plain.size() == reference.data.plain.size() );
        for ( std::size_t i = 0; i < fast.data.plain.size(); ++i ) {
            REQUIRE( fast.data.plain[i].data.size() == reference.data.plain[i].data.size() );
            REQUIRE( std::equal( fast.data.plain[i].data.begin(), fast.data.plain[i].data.end(),
                                 reference.data.plain[i].data.begin() ) );
        }
    }
    return std::move( runs[0] );
}

/** decodeLockstep on the whole stream and on truncations of it (cut inside
 * the first, a middle, and the last blocks, and a few bytes short of the
 * end): a truncated input must fail identically in both loops. */
void
checkLockstepWithTruncations( BufferView stream, std::size_t fromBit, bool windowKnown )
{
    const auto whole = decodeLockstep( stream, fromBit, windowKnown );
    REQUIRE( whole.results.back().error == Error::NONE );
    REQUIRE( whole.results.back().reachedFinalBlock );
    const auto& results = whole.results;
    const std::size_t cuts[] = {
        fromBit / 8 + 1, fromBit / 8 + 37, stream.size() / 2, stream.size() - 17,
        stream.size() - 3, stream.size() - 1, results.front().endBitOffset / 8 - 1,
        results[results.size() / 2].endBitOffset / 8 + 5, results.back().endBitOffset / 8 - 9 };
    for ( const auto cut : cuts ) {
        if ( ( cut * 8 > fromBit ) && ( cut < stream.size() ) ) {
            (void)decodeLockstep( { stream.data(), cut }, fromBit, windowKnown );
        }
    }
}

}  // namespace

int
main()
{
    constexpr std::size_t SIZE = 4 * MiB;
    const auto base64 = workloads::base64Data( SIZE, 0xDEF1 );
    const auto fastq = workloads::fastqData( SIZE, 0xDEF2 );
    const auto silesia = workloads::silesiaLikeData( SIZE, 0xDEF3 );
    const auto random = workloads::randomData( SIZE, 0xDEF4 );

    /* Round trip vs zlib on all four synthetic workloads, several levels.
     * Level 1 favors Fixed blocks, level 9 Dynamic; random data produces
     * Stored blocks — all three block types are exercised. */
    for ( const auto* workload : { &base64, &fastq, &silesia, &random } ) {
        for ( const int level : { 1, 6, 9 } ) {
            checkSerialRoundTrip( *workload, level );
        }
    }
    checkSerialRoundTrip( std::vector<std::uint8_t>{}, 6 );  /* empty stream */

    /* Mid-stream start with marker replacement equals the serial decode. */
    {
        const auto decodedBase64 = checkMidStreamStart( base64 );
        const auto decodedFastq = checkMidStreamStart( fastq );
        (void)checkMidStreamStart( silesia );

        /* Fallback triggers on base64 (back-references die out: the marked
         * prefix stays small and plain segments follow) ... */
        REQUIRE( !decodedBase64.plain.empty() );
        REQUIRE( decodedBase64.marked.size() < 256 * KiB );
        REQUIRE( decodedBase64.totalSize() > 1 * MiB );

        /* ... but NOT on the marker-persistent workload: FASTQ's repeating
         * headers keep copying pre-chunk history forward, so the trailing
         * window never becomes marker-free and everything stays 16-bit. */
        REQUIRE( decodedFastq.plain.empty() );
        REQUIRE( decodedFastq.marked.size() == decodedFastq.totalSize() );
        const auto markerCount = std::count_if(
            decodedFastq.marked.begin(), decodedFastq.marked.end(),
            [] ( std::uint16_t symbol ) { return symbol >= deflate::MARKER_BASE; } );
        REQUIRE( markerCount > 0 );
    }

    /* replaceMarkers indexing convention: marker k resolves to window[k]
     * for a full window, and offsets shift for short windows. */
    {
        std::vector<std::uint8_t> window( deflate::WINDOW_SIZE );
        for ( std::size_t i = 0; i < window.size(); ++i ) {
            window[i] = static_cast<std::uint8_t>( i * 31 + 7 );
        }
        const std::vector<std::uint16_t> symbols = {
            'a',
            static_cast<std::uint16_t>( deflate::MARKER_BASE + 0 ),
            static_cast<std::uint16_t>( deflate::MARKER_BASE + deflate::WINDOW_SIZE - 1 ),
            'z',
            static_cast<std::uint16_t>( deflate::MARKER_BASE + 1234 ),
        };
        std::vector<std::uint8_t> output( symbols.size() );
        deflate::replaceMarkers( { symbols.data(), symbols.size() },
                                 { window.data(), window.size() }, output.data() );
        REQUIRE( output[0] == 'a' );
        REQUIRE( output[1] == window.front() );
        REQUIRE( output[2] == window.back() );
        REQUIRE( output[3] == 'z' );
        REQUIRE( output[4] == window[1234] );

        /* Short window: the missing (oldest) part is unaddressable. */
        const BufferView shortWindow( window.data() + window.size() - 2000, 2000 );
        deflate::replaceMarkers( { symbols.data(), symbols.size() }, shortWindow, output.data() );
        REQUIRE( output[1] == 0 );  /* marker 0 reaches before the short window */
        REQUIRE( output[2] == window.back() );
    }

    /* Truncated input surfaces as TRUNCATED_STREAM, not as wrong bytes. */
    {
        const auto gz = compressGzipLike( { base64.data(), base64.size() }, 6 );
        const auto stream = deflateStream( gz );
        BitReader reader( stream.data(), stream.size() / 2 );
        deflate::Decoder decoder;
        decoder.setInitialWindow( {} );
        deflate::DecodedData decoded;
        const auto result = decoder.decode( reader, decoded );
        REQUIRE( result.error == Error::TRUNCATED_STREAM );
        REQUIRE( !result.reachedFinalBlock );
    }

    /* untilBitOffset stops exactly at a block boundary, and resuming from
     * that boundary yields the identical remainder. */
    {
        const auto gz = compressGzipLike( { silesia.data(), silesia.size() }, 6 );
        const auto stream = deflateStream( gz );

        BitReader reader( stream.data(), stream.size() );
        deflate::Decoder first;
        first.setInitialWindow( {} );
        deflate::DecodedData head;
        const auto headResult = first.decode( reader, head, stream.size() * 8 / 2 );
        REQUIRE( headResult.error == Error::NONE );
        REQUIRE( !headResult.reachedFinalBlock );
        REQUIRE( headResult.endBitOffset >= stream.size() * 8 / 2 );

        std::vector<std::uint8_t> headBytes;
        deflate::resolveInto( head, {}, headBytes );

        BitReader tailReader( stream.data(), stream.size() );
        tailReader.seek( headResult.endBitOffset );
        deflate::Decoder second;
        second.setInitialWindow( { headBytes.data(), headBytes.size() } );
        deflate::DecodedData tail;
        const auto tailResult = second.decode( tailReader, tail );
        REQUIRE( tailResult.error == Error::NONE );
        REQUIRE( tailResult.reachedFinalBlock );

        deflate::resolveInto( tail, {}, headBytes );  /* append remainder */
        REQUIRE( headBytes == silesia );
    }

    /* Fast loop vs reference loop (PR 4): bit-exact output equivalence on
     * every workload, in both marker and plain mode, including the marker
     * symbols themselves and the block after which the decoder switches to
     * 8-bit output — the multi-symbol LUT, the unsafe BitReader path, the
     * bulk LZ77 copies (also over markers), and the cached distance table
     * must be invisible. Decodes block by block to see the switch. */
    {
        const auto decodeBoth = [] ( BufferView stream, std::size_t fromBit, bool windowKnown ) {
            auto run = decodeLockstep( stream, fromBit, windowKnown );
            REQUIRE( run.results.back().error == Error::NONE );
            REQUIRE( run.results.back().reachedFinalBlock );
            for ( const auto& result : run.results ) {
                REQUIRE( result.blockCount == 1 );
            }
            return std::move( run.data );
        };

        /* Marker-dense: templated log lines keep copying markers forward,
         * so nearly every match goes through the marker-carrying copy.
         * Several mid-stream starts, each decoded to the stream end. */
        {
            const auto logs = workloads::logLinesData( SIZE, 0xDEF5 );
            const auto gz = compressGzipLike( { logs.data(), logs.size() }, 6 );
            const auto stream = deflateStream( gz );
            const blockfinder::DynamicBlockFinderNaive finder;
            for ( const auto eighth : { 1, 4, 7 } ) {
                const auto blockBit = finder.find( stream, stream.size() * eighth / 8 * 8 );
                REQUIRE( blockBit != blockfinder::NOT_FOUND );
                const auto decoded = decodeBoth( stream, blockBit, /* windowKnown */ false );
                const auto markers = std::count_if(
                    decoded.marked.begin(), decoded.marked.end(),
                    [] ( std::uint16_t symbol ) { return symbol >= deflate::MARKER_BASE; } );
                REQUIRE( decoded.plain.empty() );
                REQUIRE( static_cast<std::size_t>( markers ) > decoded.marked.size() / 4 );
            }
        }

        /* The marker clock after copies of markers, by a short distance
         * (element loop) and a long one (wildcopy). */
        for ( const std::size_t copyDistance : { 3, 258 } ) {
            const auto stream = markerClockStream( copyDistance );
            const auto decoded = decodeBoth( { stream.data(), stream.size() }, 0, /* windowKnown */ false );
            REQUIRE( decoded.plain.empty() );
            REQUIRE( decoded.marked.size() == 258 + deflate::WINDOW_SIZE + 100 + 10 + 64 );
        }

        for ( const auto* workload : { &base64, &fastq, &silesia, &random } ) {
            for ( const int level : { 1, 9 } ) {
                const auto gz = compressGzipLike( { workload->data(), workload->size() }, level );
                const auto stream = deflateStream( gz );
                decodeBoth( stream, 0, /* windowKnown */ true );

                const blockfinder::DynamicBlockFinderNaive finder;
                const auto blockBit = finder.find( stream, stream.size() / 2 * 8 );
                if ( blockBit != blockfinder::NOT_FOUND ) {
                    decodeBoth( stream, blockBit, /* windowKnown */ false );
                }
            }
        }
    }

    /* Header-dominated streams: zlib at memLevel 1 emits a Dynamic block
     * every ~128 symbols, so table builds dominate and the fast loop keeps
     * entering and leaving blocks. Lockstep from the start with a known
     * window and from a mid-stream block in marker mode, whole and
     * truncated. */
    for ( const auto* workload : { &base64, &silesia } ) {
        const std::vector<std::uint8_t> data( workload->begin(), workload->begin() + 1 * MiB );
        const auto stream = compressRawDeflate( data, 6, /* memLevel */ 1 );
        const BufferView view( stream.data(), stream.size() );
        REQUIRE( decodeLockstep( view, 0, true ).results.size() > 1000 );
        checkLockstepWithTruncations( view, 0, /* windowKnown */ true );
        const blockfinder::DynamicBlockFinderNaive finder;
        const auto blockBit = finder.find( view, stream.size() / 2 * 8 );
        REQUIRE( blockBit != blockfinder::NOT_FOUND );
        checkLockstepWithTruncations( view, blockBit, /* windowKnown */ false );
    }

    /* Hand-built Dynamic blocks with 15-bit literal/length and distance
     * codes: every long code goes through a subtable of the packed tables. */
    for ( std::uint64_t seed = 1; seed <= 3; ++seed ) {
        const auto [stream, expected] = longCodeStream( seed );
        const BufferView view( stream.data(), stream.size() );
        const auto plain = decodeLockstep( view, 0, /* windowKnown */ true );
        REQUIRE( plain.results.back().reachedFinalBlock );
        std::vector<std::uint8_t> resolved;
        deflate::resolveInto( plain.data, {}, resolved );
        REQUIRE( resolved == expected );
        checkLockstepWithTruncations( view, 0, /* windowKnown */ true );
        checkLockstepWithTruncations( view, 0, /* windowKnown */ false );
    }

    /* Stored blocks in bulk: random data compresses to stored blocks; start
     * mid-stream at a stored block's LEN field (setStartAtStoredData), and
     * hit the hard output limit inside a stored block. */
    {
        const auto gz = compressGzipLike( { random.data(), random.size() }, 6 );
        const auto stream = deflateStream( gz );
        const blockfinder::NonCompressedBlockFinder finder;
        const auto lengthBit = finder.find( stream, stream.size() / 2 * 8 );
        REQUIRE( lengthBit != blockfinder::NOT_FOUND );
        const auto run = decodeLockstep( stream, lengthBit, /* windowKnown */ false,
                                         /* startAtStoredData */ true );
        REQUIRE( run.results.back().error == Error::NONE );
        REQUIRE( run.results.back().reachedFinalBlock );
        const auto total = run.data.totalSize();
        REQUIRE( ( total > 0 ) && ( total < random.size() ) );
        std::vector<std::uint8_t> resolved;
        deflate::resolveInto( run.data, {}, resolved );
        REQUIRE( std::equal( resolved.begin(), resolved.end(),
                             random.end() - static_cast<std::ptrdiff_t>( total ) ) );

        for ( const bool windowKnown : { false, true } ) {
            std::vector<std::vector<std::uint8_t> > outputs;
            for ( const bool reference : { false, true } ) {
                BitReader reader( stream.data(), stream.size() );
                deflate::Decoder decoder;
                decoder.setReferenceHuffmanDecoding( reference );
                if ( windowKnown ) {
                    decoder.setInitialWindow( {} );
                }
                deflate::DecodedData decoded;
                const auto result = decoder.decode(
                    reader, decoded, std::numeric_limits<std::size_t>::max(), 1000 );
                REQUIRE( result.error == Error::EXCEEDED_OUTPUT_LIMIT );
                REQUIRE( decoded.totalSize() == 1000 + 2 * deflate::MAX_MATCH_LENGTH );
                outputs.emplace_back();
                deflate::resolveInto( decoded, {}, outputs.back() );
            }
            REQUIRE( outputs[0] == outputs[1] );
        }
    }

    /* libdeflate as a second oracle: whole-stream output on every generator
     * and compression level must equal both the input and libdeflate's. */
    if ( vendor::HAVE_LIBDEFLATE ) {
        vendor::LibdeflateDecompressor libdeflate;
        const auto runs = workloads::runsData( SIZE, 0xDEF6 );
        const auto lzBoundary = workloads::lzBoundaryData( SIZE, 0xDEF7 );
        const auto logs = workloads::logLinesData( SIZE, 0xDEF8 );
        for ( const auto* workload : { &base64, &fastq, &silesia, &random, &runs, &lzBoundary,
                                       &logs } ) {
            for ( const int level : { 1, 6, 9 } ) {
                const auto gz = compressGzipLike( { workload->data(), workload->size() }, level );
                const auto stream = deflateStream( gz );
                std::vector<std::uint8_t> oracle( workload->size() );
                REQUIRE( libdeflate.decompress( stream.data(), stream.size(), oracle ) );
                REQUIRE( oracle == *workload );

                BitReader reader( stream.data(), stream.size() );
                deflate::Decoder decoder;
                decoder.setInitialWindow( {} );
                deflate::DecodedData decoded;
                REQUIRE( decoder.decode( reader, decoded ).error == Error::NONE );
                std::vector<std::uint8_t> resolved;
                deflate::resolveInto( decoded, {}, resolved );
                REQUIRE( resolved == oracle );
            }
        }
    } else {
        std::printf( "SKIPPED libdeflate oracle: libdeflate not found at configure time\n" );
    }

    /* Unchecked-append path at exact capacity boundaries (PR 4): the fast
     * sinks jump to the buffer's existing capacity and grow in slabs; seed
     * the output buffers with adversarial capacities around the exact
     * decoded size and around the sink's growth granularity, and require
     * byte-identical output every time. */
    {
        const auto gz = compressGzipLike( { silesia.data(), silesia.size() }, 6 );
        const auto stream = deflateStream( gz );

        std::vector<std::uint8_t> expected;
        {
            BitReader reader( stream.data(), stream.size() );
            deflate::Decoder decoder;
            decoder.setInitialWindow( {} );
            deflate::DecodedData decoded;
            REQUIRE( decoder.decode( reader, decoded ).error == Error::NONE );
            deflate::resolveInto( decoded, {}, expected );
            REQUIRE( expected == silesia );
        }

        for ( const std::size_t capacity :
              { std::size_t( 1 ), std::size_t( 2 ), std::size_t( 4095 ), std::size_t( 4096 ),
                expected.size() - 1, expected.size(), expected.size() + 1,
                expected.size() + deflate::MAX_MATCH_LENGTH } ) {
            deflate::DecodedData decoded;
            decoded.plain.emplace_back();
            decoded.plain.front().data.reserve( capacity );
            BitReader reader( stream.data(), stream.size() );
            deflate::Decoder decoder;
            decoder.setInitialWindow( {} );
            REQUIRE( decoder.decode( reader, decoded ).error == Error::NONE );
            std::vector<std::uint8_t> resolved;
            deflate::resolveInto( decoded, {}, resolved );
            REQUIRE( resolved == expected );
        }

        /* Same discipline for the 16-bit marker buffer. */
        const blockfinder::DynamicBlockFinderNaive finder;
        const auto blockBit = finder.find( stream, stream.size() / 2 * 8 );
        REQUIRE( blockBit != blockfinder::NOT_FOUND );
        deflate::DecodedData baseline;
        {
            BitReader reader( stream.data(), stream.size() );
            reader.seek( blockBit );
            deflate::Decoder decoder;
            REQUIRE( decoder.decode( reader, baseline ).error == Error::NONE );
            REQUIRE( baseline.totalSize() > 0 );
        }
        for ( const std::size_t capacity :
              { std::size_t( 3 ), std::size_t( 8191 ), baseline.marked.size(),
                baseline.marked.size() + 1 } ) {
            deflate::DecodedData decoded;
            decoded.marked.reserve( capacity );
            BitReader reader( stream.data(), stream.size() );
            reader.seek( blockBit );
            deflate::Decoder decoder;
            REQUIRE( decoder.decode( reader, decoded ).error == Error::NONE );
            REQUIRE( decoded.marked.size() == baseline.marked.size() );
            REQUIRE( std::equal( decoded.marked.begin(), decoded.marked.end(),
                                 baseline.marked.begin() ) );
        }
    }

    return rapidgzip::test::finish( "testDeflate" );
}
