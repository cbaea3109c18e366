/**
 * blockfinder layer: every Dynamic block finder must locate the known block
 * starts of a pigz-produced stream (full-flush restart points are
 * byte-aligned Dynamic block starts, so the ground truth is known without
 * trusting any finder); the rapid finder's cascaded filters must agree with
 * the naive full parse on EVERY bit offset of random data (zero false
 * negatives — and, by equality, zero extra positives); and the
 * non-compressed finder must locate stored-block LEN fields.
 */

#include <algorithm>
#include <initializer_list>
#include <utility>
#include <vector>

#include "blockfinder/DynamicBlockFinderNaive.hpp"
#include "blockfinder/DynamicBlockFinderRapid.hpp"
#include "blockfinder/DynamicBlockFinderSkipLUT.hpp"
#include "blockfinder/DynamicBlockFinderZlib.hpp"
#include "blockfinder/NonCompressedBlockFinder.hpp"
#include "core/DeflateChunks.hpp"
#include "gzip/GzipHeader.hpp"
#include "gzip/ZlibCompressor.hpp"
#include "io/MemoryFileReader.hpp"
#include "workloads/DataGenerators.hpp"

#include "TestHelpers.hpp"

using namespace rapidgzip;

namespace {

/* Forwarding reference: the rapid finder's find() mutates its statistics. */
template<typename Finder>
void
checkFindsKnownOffsets( Finder&& finder,
                        BufferView stream,
                        const std::vector<std::size_t>& knownBlockBits )
{
    for ( const auto expected : knownBlockBits ) {
        /* Scan from a few bits before the block: the preceding bits are the
         * 00 00 FF FF sync marker, which no finder may mistake for a start. */
        REQUIRE( finder.find( stream, expected - 10 ) == expected );
        /* Scanning from the block itself returns it immediately. */
        REQUIRE( finder.find( stream, expected ) == expected );
    }
}

/** LSB-first bit writer matching Deflate's value bit order; Huffman codes
 * go through putCode (Deflate writes codes MSB-of-code-first). */
class DeflateBitWriter
{
public:
    void
    put( std::uint32_t value, std::size_t count )
    {
        for ( std::size_t i = 0; i < count; ++i ) {
            if ( m_fill == 8 ) {
                m_bytes.push_back( 0 );
                m_fill = 0;
            }
            m_bytes.back() = static_cast<std::uint8_t>(
                m_bytes.back() | ( ( ( value >> i ) & 1U ) << m_fill ) );
            ++m_fill;
        }
    }

    void
    putCode( std::uint32_t code, std::size_t count )
    {
        for ( std::size_t i = count; i > 0; --i ) {
            put( ( code >> ( i - 1 ) ) & 1U, 1 );
        }
    }

    [[nodiscard]] std::vector<std::uint8_t>
    finish( std::size_t padBytes )
    {
        auto result = m_bytes;
        if ( result.empty() ) {
            result.push_back( 0 );
        }
        result.insert( result.end(), padBytes, 0 );
        return result;
    }

    DeflateBitWriter()
    {
        m_bytes.push_back( 0 );
        m_fill = 0;
    }

private:
    std::vector<std::uint8_t> m_bytes;
    std::size_t m_fill{ 0 };
};

/**
 * Crafted Dynamic headers aimed at the rapid finder's SURVIVOR TAIL — the
 * cold out-of-line stages 5-7 that only candidates passing the packed
 * precode filter reach. Each case passes stages 1-4 by construction and is
 * then accepted or rejected by the later stages; all three custom finders
 * must agree with the naive full parse on the exact result, offset for
 * offset. The simple precode has symbols {0, 8} with 1-bit codes
 * (canonical: 0 → code 0, 8 → code 1).
 */
struct CraftedHeader
{
    const char* name;
    bool valid;
    std::vector<std::uint8_t> bytes;
};

[[nodiscard]] CraftedHeader
craftHeader( const char* name,
             bool valid,
             std::size_t lengthEightLiterals,   /* precode sym 8 emissions (literal side) */
             std::size_t zeroLengthLiterals,    /* precode sym 0 emissions (literal side) */
             std::size_t hdist,                 /* HDIST field: hdist + 1 distance entries */
             std::size_t lengthEightDistances ) /* sym 8 emissions on the distance side */
{
    DeflateBitWriter writer;
    writer.put( 0, 1 );   /* BFINAL = 0 */
    writer.put( 2, 2 );   /* BTYPE = Dynamic */
    writer.put( 0, 5 );   /* HLIT = 0 → 257 literal entries */
    writer.put( static_cast<std::uint32_t>( hdist ), 5 );
    writer.put( 1, 4 );   /* HCLEN = 1 → 5 precode lengths: 16 17 18 0 8 */
    writer.put( 0, 3 );   /* length(16) = 0 */
    writer.put( 0, 3 );   /* length(17) = 0 */
    writer.put( 0, 3 );   /* length(18) = 0 */
    writer.put( 1, 3 );   /* length(0)  = 1 → canonical code 0 */
    writer.put( 1, 3 );   /* length(8)  = 1 → canonical code 1 */

    for ( std::size_t i = 0; i < lengthEightLiterals; ++i ) {
        writer.putCode( 1, 1 );  /* literal entry of code length 8 */
    }
    for ( std::size_t i = 0; i < zeroLengthLiterals; ++i ) {
        writer.putCode( 0, 1 );  /* literal entry of code length 0 */
    }
    for ( std::size_t i = 0; i < 1 + hdist; ++i ) {
        writer.putCode( i < lengthEightDistances ? 1 : 0, 1 );
    }
    return { name, valid, writer.finish( 64 ) };
}

/** Stage-5 overflow case: precode {18:1, 0:2, 8:2}; a symbol-18 run of
 * 11 + 127 zeros overruns the 258 total entries. */
[[nodiscard]] CraftedHeader
craftRepeatOverflowHeader()
{
    DeflateBitWriter writer;
    writer.put( 0, 1 );
    writer.put( 2, 2 );
    writer.put( 0, 5 );   /* HLIT = 0 */
    writer.put( 0, 5 );   /* HDIST = 0 */
    writer.put( 1, 4 );   /* HCLEN = 1 → lengths for 16 17 18 0 8 */
    writer.put( 0, 3 );   /* length(16) = 0 */
    writer.put( 0, 3 );   /* length(17) = 0 */
    writer.put( 1, 3 );   /* length(18) = 1 → canonical code 0 */
    writer.put( 2, 3 );   /* length(0)  = 2 → canonical code 10 */
    writer.put( 2, 3 );   /* length(8)  = 2 → canonical code 11 */

    for ( std::size_t i = 0; i < 200; ++i ) {
        writer.putCode( 0b11U, 2 );  /* 200 length-8 literal entries */
    }
    writer.putCode( 0, 1 );          /* symbol 18 ... */
    writer.put( 127, 7 );            /* ... repeat 11 + 127 → 200 + 138 > 258 */
    return { "stage-5 repeat overflow", false, writer.finish( 64 ) };
}

void
testCraftedAlmostValidHeaders()
{
    const std::vector<CraftedHeader> cases = {
        /* 256 length-8 literals + EOB length 0: Kraft sum exactly 1. */
        craftHeader( "valid control", true, 256, 1, 0, 0 ),
        /* 257 length-8 literals: Kraft 257/256 — over-subscribed (stage 7). */
        craftHeader( "over-subscribed literal code", false, 257, 0, 0, 0 ),
        /* 255 length-8 literals: Kraft 255/256 — incomplete (stage 7). */
        craftHeader( "incomplete literal code", false, 255, 2, 0, 0 ),
        /* Valid literals but TWO length-8 distance codes: incomplete with
         * more than one symbol (stage 6; one symbol would be legal). */
        craftHeader( "non-optimal distance code", false, 256, 1, 1, 2 ),
        /* Valid literals and exactly ONE distance code: legal single-code
         * incompleteness — must be ACCEPTED (the stage-6 exemption). */
        craftHeader( "single distance code", true, 256, 1, 0, 1 ),
        craftRepeatOverflowHeader(),
    };

    for ( const auto& crafted : cases ) {
        const BufferView view( crafted.bytes.data(), crafted.bytes.size() );
        const blockfinder::DynamicBlockFinderNaive naive;
        blockfinder::DynamicBlockFinderRapid rapid;
        const blockfinder::DynamicBlockFinderSkipLUT skipLut;

        const auto naiveResult = naive.find( view, 0 );
        const auto rapidResult = rapid.find( view, 0 );
        const auto skipResult = skipLut.find( view, 0 );
        REQUIRE( rapidResult == naiveResult );
        REQUIRE( skipResult == naiveResult );
        if ( crafted.valid ) {
            REQUIRE( naiveResult == 0 );
        } else {
            REQUIRE( naiveResult != 0 );
            REQUIRE( !blockfinder::DynamicBlockFinderRapid::testCandidate( view, 0, nullptr ) );
        }
        if ( naiveResult != 0 ) {
            continue;
        }

        /* The accepted cases must also survive at a non-byte-aligned start:
         * re-emit at bit offset 3. */
        DeflateBitWriter shifted;
        shifted.put( 0b101U, 3 );  /* arbitrary preamble bits */
        for ( const auto byte : crafted.bytes ) {
            shifted.put( byte, 8 );
        }
        const auto shiftedBytes = shifted.finish( 8 );
        const BufferView shiftedView( shiftedBytes.data(), shiftedBytes.size() );
        REQUIRE( rapid.find( shiftedView, 3 ) == 3 );
        REQUIRE( naive.find( shiftedView, 3 ) == 3 );
    }
}

}  // namespace

/**
 * findFullFlushMarkers() against a naive byte-by-byte comparison: markers
 * planted on every position around the 4 MiB scan-block overlap, in runs
 * that overlap each other (00 00 00 FF FF FF), and in the last 4 bytes of
 * the search range must all be found, exactly once and in order.
 */
void
testFullFlushMarkerScan()
{
    constexpr std::uint8_t MARKER[4] = { 0x00, 0x00, 0xFF, 0xFF };
    constexpr std::size_t BLOCK = 4 * MiB;  /* the scan's read block */
    auto data = workloads::randomData( 2 * BLOCK + 4096, 0x5CA4 );
    const auto plant = [&data] ( std::size_t at, std::initializer_list<std::uint8_t> bytes ) {
        std::copy( bytes.begin(), bytes.end(), data.begin() + static_cast<std::ptrdiff_t>( at ) );
    };
    /* Block ends sit at searchBegin + k * BLOCK: cover both scan origins below. */
    for ( const std::size_t blockEnd : { BLOCK, BLOCK + 1001 } ) {
        for ( auto at = blockEnd - 6; at <= blockEnd + 2; at += 4 ) {
            plant( at, { 0x00, 0x00, 0xFF, 0xFF } );
        }
        plant( blockEnd - 3, { 0x00, 0x00, 0xFF, 0xFF } );  /* straddles the block end */
    }
    plant( 2 * BLOCK - 2, { 0x00, 0x00, 0xFF, 0xFF } );
    plant( 1000, { 0x00, 0x00, 0x00, 0xFF, 0xFF, 0xFF } );
    plant( 2000, { 0xFF, 0x00, 0x00, 0xFF, 0xFF, 0x00, 0x00, 0xFF, 0xFF } );
    plant( data.size() - 4, { 0x00, 0x00, 0xFF, 0xFF } );

    const auto naive = [&data, &MARKER] ( std::size_t begin, std::size_t end ) {
        std::vector<std::size_t> ends;
        for ( auto at = begin; at + 4 <= end; ++at ) {
            if ( std::equal( MARKER, MARKER + 4, data.begin() + static_cast<std::ptrdiff_t>( at ) ) ) {
                ends.push_back( at + 4 );
            }
        }
        return ends;
    };

    const MemoryFileReader file( data );
    const std::vector<std::pair<std::size_t, std::size_t> > ranges = {
        { 0, data.size() },
        { 1001, data.size() },          /* starts inside a planted run */
        { BLOCK - 5, data.size() - 1 },  /* cuts the last marker short */
        { 3, BLOCK + 1 },                /* ends inside the overlap */
        { data.size() - 4, data.size() },
    };
    for ( const auto& [begin, end] : ranges ) {
        const auto expected = naive( begin, end );
        REQUIRE( findFullFlushMarkers( file, begin, end ) == expected );
    }
    REQUIRE( naive( 0, data.size() ).back() == data.size() );
}

int
main()
{
    /* Ground truth: pigz-style full flushes byte-align the stream and reset
     * the window, so each marker-end offset is a known Dynamic block start
     * (base64 data at level 6 always produces Dynamic blocks). */
    testFullFlushMarkerScan();

    const auto data = workloads::base64Data( 4 * MiB, 0xB10C );
    const auto gz = compressPigzLike( { data.data(), data.size() }, 6, 256 * KiB );
    const auto deflateStart = parseGzipHeader( { gz.data(), gz.size() } );
    const BufferView stream( gz.data() + deflateStart, gz.size() - deflateStart );

    MemoryFileReader file( gz );
    const auto markerEnds = findFullFlushMarkers( file, deflateStart, gz.size() );
    REQUIRE( markerEnds.size() >= 10 );

    std::vector<std::size_t> knownBlockBits;
    for ( std::size_t i = 0; i + 1 < markerEnds.size(); ++i ) {  /* skip the last: may be final */
        knownBlockBits.push_back( ( markerEnds[i] - deflateStart ) * 8 );
    }

    {
        blockfinder::DynamicBlockFinderRapid rapid;
        checkFindsKnownOffsets( rapid, stream, knownBlockBits );
        REQUIRE( rapid.statistics().validHeaders >= 2 * knownBlockBits.size() );
        REQUIRE( rapid.statistics().positionsTested > rapid.statistics().validHeaders );
    }
    checkFindsKnownOffsets( blockfinder::DynamicBlockFinderNaive(), stream, knownBlockBits );
    checkFindsKnownOffsets( blockfinder::DynamicBlockFinderSkipLUT(), stream, knownBlockBits );
    {
        /* The zlib trial-inflate baseline is ~100x slower: spot-check a few. */
        const blockfinder::DynamicBlockFinderZlib zlib;
        const std::vector<std::size_t> sample = {
            knownBlockBits.front(),
            knownBlockBits[knownBlockBits.size() / 2],
            knownBlockBits.back(),
        };
        checkFindsKnownOffsets( zlib, stream, sample );
    }

    /* Zero false negatives (and, symmetrically, zero extra positives) of
     * rapid vs naive: both must accept EXACTLY the same bit offsets over
     * random data — the cascade is a pure acceleration, not an
     * approximation. The skip-LUT must agree as well. */
    {
        const auto noise = workloads::randomData( 256 * KiB, 0xFA15E );
        const BufferView view( noise.data(), noise.size() );
        const blockfinder::DynamicBlockFinderNaive naive;
        blockfinder::DynamicBlockFinderRapid rapid;
        const blockfinder::DynamicBlockFinderSkipLUT skipLut;

        std::vector<std::size_t> naiveFound;
        for ( auto fromBit = std::size_t( 0 ); ; ) {
            const auto offset = naive.find( view, fromBit );
            if ( offset == blockfinder::NOT_FOUND ) {
                break;
            }
            naiveFound.push_back( offset );
            fromBit = offset + 1;
        }

        std::vector<std::size_t> rapidFound;
        for ( auto fromBit = std::size_t( 0 ); ; ) {
            const auto offset = rapid.find( view, fromBit );
            if ( offset == blockfinder::NOT_FOUND ) {
                break;
            }
            rapidFound.push_back( offset );
            fromBit = offset + 1;
        }
        REQUIRE( rapidFound == naiveFound );

        std::vector<std::size_t> skipLutFound;
        for ( auto fromBit = std::size_t( 0 ); ; ) {
            const auto offset = skipLut.find( view, fromBit );
            if ( offset == blockfinder::NOT_FOUND ) {
                break;
            }
            skipLutFound.push_back( offset );
            fromBit = offset + 1;
        }
        REQUIRE( skipLutFound == naiveFound );

        /* Per-position agreement of the static cascade entry point, too. */
        for ( std::size_t position = 0; position < 64 * KiB; ++position ) {
            BitReader reader( view.data(), view.size() );
            reader.seek( position );
            deflate::DynamicHuffmanCodings codings;
            const bool naiveAccepts =
                ( ( reader.peek( 3 ) & 0b111U ) == 0b100U )
                && ( ( reader.skip( 3 ), deflate::readDynamicCodings( reader, codings ) )
                     == Error::NONE );
            REQUIRE( blockfinder::DynamicBlockFinderRapid::testCandidate( view, position, nullptr )
                     == naiveAccepts );
        }
    }

    /* NonCompressedBlockFinder: stored blocks from incompressible data. The
     * LEN field of the first stored block of a chunk is byte-aligned; check
     * the finder reports a position whose LEN/NLEN are complements and that
     * every full-flush sync marker (LEN = 0) is found as well. */
    {
        const auto noise = workloads::randomData( 1 * MiB, 0x57A7 );
        const auto storedGz = compressPigzLike( { noise.data(), noise.size() }, 6, 128 * KiB );
        const auto storedDeflateStart = parseGzipHeader( { storedGz.data(), storedGz.size() } );
        const BufferView storedStream( storedGz.data() + storedDeflateStart,
                                       storedGz.size() - storedDeflateStart );

        const blockfinder::NonCompressedBlockFinder finder;
        std::size_t found = 0;
        for ( auto fromBit = std::size_t( 0 ); ; ) {
            const auto offset = finder.find( storedStream, fromBit );
            if ( offset == blockfinder::NOT_FOUND ) {
                break;
            }
            REQUIRE( offset % 8 == 0 );
            const auto byte = offset / 8;
            const auto len = static_cast<unsigned>( storedStream[byte] )
                             | ( static_cast<unsigned>( storedStream[byte + 1] ) << 8U );
            const auto nlen = static_cast<unsigned>( storedStream[byte + 2] )
                              | ( static_cast<unsigned>( storedStream[byte + 3] ) << 8U );
            REQUIRE( ( len ^ nlen ) == 0xFFFFU );
            ++found;
            fromBit = offset + 1;
        }
        REQUIRE( found > 0 );

        /* Every sync marker (the empty stored block 00 00 FF FF) must be
         * among the found positions — rescan from just before each. */
        MemoryFileReader storedFile( storedGz );
        const auto syncMarkers = findFullFlushMarkers( storedFile, storedDeflateStart,
                                                       storedGz.size() );
        REQUIRE( !syncMarkers.empty() );
        for ( const auto markerEnd : syncMarkers ) {
            const auto lenBit = ( markerEnd - FULL_FLUSH_MARKER_SIZE - storedDeflateStart ) * 8;
            REQUIRE( finder.find( storedStream, lenBit ) == lenBit );
        }
    }

    /* Survivor-tail negative tests: crafted almost-valid headers that pass
     * the packed stages 1-4 and must be decided — identically across
     * finders — by the cold stages 5-7. */
    testCraftedAlmostValidHeaders();

    return rapidgzip::test::finish( "testBlockFinder" );
}
