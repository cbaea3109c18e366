/**
 * Huffman layer: canonical code construction, decode correctness for both
 * LUT layouts against a reference encoder, Kraft validation, EOF and
 * invalid-code behavior — including the 15-bit pathological shape whose
 * construction cost motivates the two-level layout — and the Deflate
 * decoder's packed tables against the two-level LUT.
 */

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "bits/BitReader.hpp"
#include "deflate/DeflateDecoder.hpp"
#include "deflate/definitions.hpp"
#include "huffman/HuffmanCoding.hpp"
#include "huffman/HuffmanCodingDoubleLUT.hpp"
#include "huffman/PackedDecodeTable.hpp"
#include "workloads/DataGenerators.hpp"

#include "TestHelpers.hpp"

using namespace rapidgzip;

namespace {

/** Reference encoder: canonical codes, written LSB-first (Deflate order). */
class BitWriter
{
public:
    void
    write( std::uint32_t bits, unsigned count )
    {
        for ( unsigned i = 0; i < count; ++i ) {
            /* Canonical codes are written MSB-first into the stream. */
            const auto bit = ( bits >> ( count - 1 - i ) ) & 1U;
            m_current |= bit << m_bitCount;
            if ( ++m_bitCount == 8 ) {
                m_bytes.push_back( static_cast<std::uint8_t>( m_current ) );
                m_current = 0;
                m_bitCount = 0;
            }
        }
    }

    [[nodiscard]] std::vector<std::uint8_t>
    finish()
    {
        if ( m_bitCount > 0 ) {
            m_bytes.push_back( static_cast<std::uint8_t>( m_current ) );
        }
        return m_bytes;
    }

private:
    std::vector<std::uint8_t> m_bytes;
    std::uint32_t m_current{ 0 };
    unsigned m_bitCount{ 0 };
};

struct CanonicalCodes
{
    std::vector<std::uint32_t> code;
    std::vector<std::uint8_t> length;
};

CanonicalCodes
assignCanonicalCodes( const std::vector<std::uint8_t>& lengths )
{
    CanonicalCodes result;
    result.length = lengths;
    result.code.resize( lengths.size(), 0 );

    std::uint32_t countPerLength[16] = {};
    for ( const auto length : lengths ) {
        ++countPerLength[length];
    }
    countPerLength[0] = 0;
    std::uint32_t nextCode[17] = {};
    std::uint32_t code = 0;
    for ( unsigned length = 1; length <= 15; ++length ) {
        code = ( code + countPerLength[length - 1] ) << 1U;
        nextCode[length] = code;
    }
    for ( std::size_t symbol = 0; symbol < lengths.size(); ++symbol ) {
        if ( lengths[symbol] > 0 ) {
            result.code[symbol] = nextCode[lengths[symbol]]++;
        }
    }
    return result;
}

/** Split-then-extend generator like the benchmark's makeCode. */
std::vector<std::uint8_t>
makeCompleteCode( std::size_t symbolCount, unsigned maxLength, std::uint64_t seed )
{
    Xorshift64 random( seed );
    std::vector<std::uint8_t> lengths( symbolCount, 0 );
    lengths[0] = 1;
    lengths[1] = 1;
    std::size_t used = 2;
    while ( used < symbolCount ) {
        const auto victim = random.below( used );
        if ( lengths[victim] >= maxLength ) {
            continue;
        }
        ++lengths[victim];
        lengths[used] = lengths[victim];
        ++used;
    }
    return lengths;
}

template<typename Coding>
void
checkRoundTrip( const std::vector<std::uint8_t>& lengths, std::uint64_t seed )
{
    const auto canonical = assignCanonicalCodes( lengths );

    /* Encode a pseudo-random symbol stream of the usable symbols. */
    std::vector<std::uint16_t> usable;
    for ( std::size_t symbol = 0; symbol < lengths.size(); ++symbol ) {
        if ( lengths[symbol] > 0 ) {
            usable.push_back( static_cast<std::uint16_t>( symbol ) );
        }
    }
    Xorshift64 random( seed );
    std::vector<std::uint16_t> symbols( 5000 );
    BitWriter writer;
    for ( auto& symbol : symbols ) {
        symbol = usable[random.below( usable.size() )];
        writer.write( canonical.code[symbol], canonical.length[symbol] );
    }
    const auto encoded = writer.finish();

    Coding coding;
    REQUIRE( coding.initializeFromLengths( { lengths.data(), lengths.size() } ) );
    REQUIRE( coding.maxCodeLength() >= 1 );

    BitReader reader( encoded.data(), encoded.size() );
    for ( std::size_t i = 0; i < symbols.size(); ++i ) {
        const auto decoded = coding.decode( reader );
        REQUIRE( decoded == static_cast<int>( symbols[i] ) );
    }
    /* Trailing padding decodes to at most a few bogus symbols, then EOF. */
    while ( true ) {
        const auto decoded = coding.decode( reader );
        if ( decoded < 0 ) {
            REQUIRE( decoded == Coding::DECODE_EOF || decoded == Coding::DECODE_INVALID );
            break;
        }
    }
}

/**
 * Decode @p data's bit stream to an EVENT stream over a Deflate-style
 * literal/length alphabet: literal bytes as 0..255, end-of-block as 256,
 * length symbols as 1000 + final length (base + extra bits read from the
 * stream). Events are the right granularity for cross-implementation
 * equivalence because the multi-symbol LUT may resolve two literals or a
 * length INCLUDING its extra bits in one step — symbol-by-symbol streams
 * would not be comparable.
 */
template<typename Coding>
std::vector<int>
decodeEventsReference( const Coding& coding, const std::vector<std::uint8_t>& data,
                       std::size_t maxEvents )
{
    std::vector<int> events;
    BitReader reader( data.data(), data.size() );
    while ( events.size() < maxEvents ) {
        const auto symbol = coding.decode( reader );
        if ( symbol < 0 ) {
            events.push_back( symbol );  /* DECODE_EOF / DECODE_INVALID terminator */
            break;
        }
        if ( symbol < 256 ) {
            events.push_back( symbol );
        } else if ( symbol == 256 ) {
            events.push_back( 256 );
            break;
        } else if ( symbol <= 285 ) {
            const auto lengthIndex = static_cast<std::size_t>( symbol - 257 );
            const auto extra = deflate::LENGTH_EXTRA_BITS[lengthIndex];
            if ( reader.bitsLeft() < extra ) {
                events.push_back( HuffmanCodingDoubleLUT::DECODE_EOF );
                break;
            }
            const auto length = deflate::LENGTH_BASE[lengthIndex]
                                + ( extra > 0 ? reader.read( extra ) : 0 );
            events.push_back( 1000 + static_cast<int>( length ) );
        } else {
            events.push_back( HuffmanCodingDoubleLUT::DECODE_INVALID );
            break;
        }
    }
    return events;
}

/** The same event stream decoded through the Decoder's packed literal/length
 * table with its loop discipline: guaranteed-bits lookups while the input
 * lasts, length extra bits from the bit buffer saved before the entry was
 * consumed, and checked lookups (zero-padded peek, EOF on a codeword cut by
 * the end) near the end. */
std::vector<int>
decodeEventsPacked( const deflate::DynamicHuffmanCodings& codings,
                    const std::vector<std::uint8_t>& data, std::size_t maxEvents )
{
    using namespace huffman;
    constexpr auto TABLE_BITS = deflate::LITERAL_TABLE_BITS;
    const auto* const table = codings.literalTable.data();
    std::vector<int> events;
    BitReader reader( data.data(), data.size() );
    while ( events.size() < maxEvents ) {
        std::uint32_t entry = 0;
        std::uint64_t saved = 0;
        if ( reader.ensureBits( 15 + 5 ) ) {
            saved = reader.peekUnsafe( 15 + 5 );
            entry = table[saved & ( ( 1U << TABLE_BITS ) - 1U )];
            if ( ( entry & ENTRY_SUBTABLE ) != 0 ) {
                reader.consumeUnsafe( static_cast<std::uint8_t>( entry ) );
                saved = reader.peekUnsafe( 15 + 5 - TABLE_BITS );
                entry = table[subtableIndex( entry, saved )];
            }
            reader.consumeUnsafe( static_cast<std::uint8_t>( entry ) );
        } else {
            if ( reader.eof() ) {
                events.push_back( HuffmanCodingDoubleLUT::DECODE_EOF );
                break;
            }
            const auto bits = reader.peek( 15 );
            entry = table[bits & ( ( 1U << TABLE_BITS ) - 1U )];
            auto length = codewordLength( entry );
            if ( ( entry & ENTRY_SUBTABLE ) != 0 ) {
                entry = table[subtableIndex( entry, bits >> TABLE_BITS )];
                length = TABLE_BITS + codewordLength( entry );
            }
            if ( length > reader.bitsLeft() ) {
                events.push_back( HuffmanCodingDoubleLUT::DECODE_EOF );
                break;
            }
            reader.skip( length );
            const auto extra = static_cast<std::uint8_t>( entry ) - codewordLength( entry );
            if ( ( ( entry & ( ENTRY_LITERAL | ENTRY_EXCEPTIONAL ) ) == 0 ) && ( extra > 0 ) ) {
                if ( reader.bitsLeft() < extra ) {
                    events.push_back( HuffmanCodingDoubleLUT::DECODE_EOF );
                    break;
                }
                saved = reader.read( extra ) << codewordLength( entry );
            }
        }
        if ( ( entry & ENTRY_LITERAL ) != 0 ) {
            events.push_back( static_cast<int>( ( entry >> 16U ) & 0xFFU ) );
        } else if ( ( entry & ENTRY_END_OF_BLOCK ) != 0 ) {
            events.push_back( 256 );
            break;
        } else if ( ( entry & ENTRY_EXCEPTIONAL ) != 0 ) {
            events.push_back( HuffmanCodingDoubleLUT::DECODE_INVALID );  /* 286/287 */
            break;
        } else {
            events.push_back( 1000 + static_cast<int>( ( entry >> 16U )
                                                       + extraBitsValue( saved, entry ) ) );
        }
    }
    return events;
}

/**
 * Packed-table equivalence sweep: on the same coding and the same bits, the
 * event streams of the naive single-level LUT, the two-level LUT, and the
 * Decoder's packed table must agree exactly — including the terminal
 * EOF/INVALID event at a truncated (EOF-at-boundary) stream.
 */
void
checkEventEquivalence( const std::vector<std::uint8_t>& lengths,
                       const std::vector<std::uint8_t>& bits )
{
    HuffmanCoding naive;
    HuffmanCodingDoubleLUT twoLevel;
    deflate::DynamicHuffmanCodings packed;
    const std::uint8_t distanceLength = 1;
    REQUIRE( naive.initializeFromLengths( { lengths.data(), lengths.size() } ) );
    REQUIRE( twoLevel.initializeFromLengths( { lengths.data(), lengths.size() } ) );
    REQUIRE( deflate::buildCodings( packed, { lengths.data(), lengths.size() },
                                    { &distanceLength, 1 }, false ) == Error::NONE );

    constexpr std::size_t MAX_EVENTS = 20000;
    const auto naiveEvents = decodeEventsReference( naive, bits, MAX_EVENTS );
    const auto twoLevelEvents = decodeEventsReference( twoLevel, bits, MAX_EVENTS );
    const auto packedEvents = decodeEventsPacked( packed, bits, MAX_EVENTS );
    REQUIRE( naiveEvents == twoLevelEvents );
    REQUIRE( twoLevelEvents == packedEvents );

    /* EOF at every boundary near the end: all three must agree bit-exactly
     * on the truncated streams too. */
    for ( std::size_t cut = 1; ( cut <= 8 ) && ( cut < bits.size() ); ++cut ) {
        const std::vector<std::uint8_t> truncated( bits.begin(), bits.end() - cut );
        const auto a = decodeEventsReference( naive, truncated, MAX_EVENTS );
        const auto b = decodeEventsReference( twoLevel, truncated, MAX_EVENTS );
        const auto c = decodeEventsPacked( packed, truncated, MAX_EVENTS );
        REQUIRE( a == b );
        REQUIRE( b == c );
    }
}

/**
 * Build the packed table for @p lengths with identity results (payload =
 * symbol) and resolve EVERY 15-bit pattern through it and through the
 * two-level LUT: both must yield the same (symbol, bits consumed), and the
 * same verdict for patterns no code matches. An all-zero vector (a block
 * without distance codes) must leave every slot invalid.
 */
void
checkPackedTable( const std::vector<std::uint8_t>& lengths, unsigned tableBits )
{
    using namespace huffman;
    std::vector<std::uint32_t> results( lengths.size() );
    for ( std::size_t symbol = 0; symbol < results.size(); ++symbol ) {
        results[symbol] = makeResult( static_cast<std::uint32_t>( symbol ), 0 );
    }
    const CodeLengthHistogram histogram( { lengths.data(), lengths.size() } );
    REQUIRE( ( histogram.codeCount == 0 ) || histogram.isValid() );
    REQUIRE( ( histogram.codeCount <= 1 ) || histogram.isComplete() );
    /* Canary after the worst-case size of the decoder's tables (a distance
     * table only ever holds the 32-symbol alphabet): the build must never
     * write past it. */
    const std::size_t enough = tableBits == deflate::LITERAL_TABLE_BITS
                               ? deflate::LITERAL_TABLE_SIZE
                               : lengths.size() <= 32 ? deflate::DISTANCE_TABLE_SIZE
                                                      : std::size_t( 1 ) << 16U;
    std::vector<std::uint32_t> table( enough + 1, 0xDEADBEEFU );
    buildPackedDecodeTable( table.data(), tableBits, { lengths.data(), lengths.size() },
                            results.data(), histogram );
    REQUIRE( table[enough] == 0xDEADBEEFU );

    HuffmanCodingDoubleLUT twoLevel;
    const auto haveCode = twoLevel.initializeFromLengths( { lengths.data(), lengths.size() } );
    REQUIRE( haveCode == ( histogram.codeCount > 0 ) );

    for ( std::uint32_t pattern = 0; pattern < ( 1U << 15U ); ++pattern ) {
        auto entry = table[pattern & ( ( 1U << tableBits ) - 1U )];
        auto length = codewordLength( entry );
        if ( ( entry & ENTRY_SUBTABLE ) != 0 ) {
            entry = table[subtableIndex( entry, pattern >> tableBits )];
            length = tableBits + codewordLength( entry );
        }
        const auto matched = codewordLength( entry ) != 0;
        if ( !haveCode ) {
            REQUIRE( !matched && ( entry == ENTRY_EXCEPTIONAL ) );
            continue;
        }
        const std::uint8_t bytes[4] = { static_cast<std::uint8_t>( pattern ),
                                        static_cast<std::uint8_t>( pattern >> 8U ), 0, 0 };
        BitReader reader( bytes, sizeof( bytes ) );
        const auto symbol = twoLevel.decode( reader );
        if ( symbol == HuffmanCodingDoubleLUT::DECODE_INVALID ) {
            REQUIRE( !matched );
            continue;
        }
        REQUIRE( matched );
        REQUIRE( static_cast<int>( entry >> 16U ) == symbol );
        REQUIRE( length == reader.tell() );
        REQUIRE( static_cast<std::uint8_t>( entry ) == codewordLength( entry ) );
    }
}

/** @p usedSymbols complete-code lengths (1..@p maxLength bits) scattered over
 * an alphabet of @p alphabetSize, the rest unused. */
std::vector<std::uint8_t>
scatteredCompleteCode( std::size_t alphabetSize, std::size_t usedSymbols, unsigned maxLength,
                       std::uint64_t seed )
{
    const auto code = makeCompleteCode( usedSymbols, maxLength, seed );
    std::vector<std::size_t> positions( alphabetSize );
    for ( std::size_t i = 0; i < alphabetSize; ++i ) {
        positions[i] = i;
    }
    Xorshift64 random( seed ^ 0x5CA77E2ULL );
    for ( std::size_t i = alphabetSize; i > 1; --i ) {
        std::swap( positions[i - 1], positions[random.below( i )] );
    }
    std::vector<std::uint8_t> lengths( alphabetSize, 0 );
    for ( std::size_t i = 0; i < code.size(); ++i ) {
        lengths[positions[i]] = code[i];
    }
    return lengths;
}

}  // namespace

int
main()
{
    /* Hand-checkable code: lengths {1,2,3,3} over symbols {a,b,c,d}. */
    {
        const std::vector<std::uint8_t> lengths{ 1, 2, 3, 3 };
        checkRoundTrip<HuffmanCoding>( lengths, 1 );
        checkRoundTrip<HuffmanCodingDoubleLUT>( lengths, 1 );
    }

    /* Deflate-typical and pathological shapes; two-level layout must agree. */
    checkRoundTrip<HuffmanCoding>( makeCompleteCode( 286, 12, 0xCAFE ), 2 );
    checkRoundTrip<HuffmanCodingDoubleLUT>( makeCompleteCode( 286, 12, 0xCAFE ), 2 );
    checkRoundTrip<HuffmanCoding>( makeCompleteCode( 286, 15, 0xBEEF ), 3 );
    checkRoundTrip<HuffmanCodingDoubleLUT>( makeCompleteCode( 286, 15, 0xBEEF ), 3 );
    checkRoundTrip<HuffmanCoding>( makeCompleteCode( 19, 7, 0x1234 ), 4 );
    checkRoundTrip<HuffmanCodingDoubleLUT>( makeCompleteCode( 19, 7, 0x1234 ), 4 );

    /* Both decoders produce identical symbol streams on identical input. */
    {
        const auto lengths = makeCompleteCode( 286, 15, 0x77 );
        HuffmanCoding single;
        HuffmanCodingDoubleLUT twoLevel;
        REQUIRE( single.initializeFromLengths( { lengths.data(), lengths.size() } ) );
        REQUIRE( twoLevel.initializeFromLengths( { lengths.data(), lengths.size() } ) );

        const auto bits = workloads::randomData( 64 * KiB, 0x99 );
        BitReader readerA( bits.data(), bits.size() );
        BitReader readerB( bits.data(), bits.size() );
        while ( true ) {
            const auto a = single.decode( readerA );
            const auto b = twoLevel.decode( readerB );
            REQUIRE( a == b );
            if ( a < 0 ) {
                break;
            }
        }
    }

    /* Over-subscribed codes are rejected (Kraft violation). */
    {
        const std::vector<std::uint8_t> bad{ 1, 1, 1 };
        HuffmanCoding single;
        HuffmanCodingDoubleLUT twoLevel;
        REQUIRE( !single.initializeFromLengths( { bad.data(), bad.size() } ) );
        REQUIRE( !twoLevel.initializeFromLengths( { bad.data(), bad.size() } ) );
    }

    /* Incomplete codes: unmapped patterns decode as DECODE_INVALID. */
    {
        const std::vector<std::uint8_t> incomplete{ 2, 2, 2 };  /* codes 00,01,10; 11 unmapped */
        HuffmanCoding coding;
        REQUIRE( coding.initializeFromLengths( { incomplete.data(), incomplete.size() } ) );
        const std::uint8_t allOnes[] = { 0xFF };
        BitReader reader( allOnes, sizeof( allOnes ) );
        REQUIRE( coding.decode( reader ) == HuffmanCoding::DECODE_INVALID );

        HuffmanCodingDoubleLUT twoLevel;
        REQUIRE( twoLevel.initializeFromLengths( { incomplete.data(), incomplete.size() } ) );
        BitReader reader2( allOnes, sizeof( allOnes ) );
        REQUIRE( twoLevel.decode( reader2 ) == HuffmanCodingDoubleLUT::DECODE_INVALID );
    }

    /* All-zero lengths are rejected; EOF on an empty reader. */
    {
        const std::vector<std::uint8_t> zeros( 10, 0 );
        HuffmanCoding coding;
        REQUIRE( !coding.initializeFromLengths( { zeros.data(), zeros.size() } ) );

        const auto lengths = makeCompleteCode( 19, 7, 0x1 );
        REQUIRE( coding.initializeFromLengths( { lengths.data(), lengths.size() } ) );
        BitReader empty( static_cast<const std::uint8_t*>( nullptr ), 0 );
        REQUIRE( coding.decode( empty ) == HuffmanCoding::DECODE_EOF );
    }

    /* The Decoder's packed tables against the two-level LUT, pattern by
     * pattern: random complete codes of every maximum length 1..15, with
     * unused symbols in between, in both main-table widths; literal/length
     * alphabets of 257..288 symbols including coded 286/287; single-code
     * (incomplete) distance codes of every length; no distance code. */
    {
        Xorshift64 random( 0x9AC4ED );
        for ( unsigned maxLength = 1; maxLength <= 15; ++maxLength ) {
            for ( std::uint64_t seed = 1; seed <= 4; ++seed ) {
                const auto alphabet = 257 + random.below( 32 );
                const auto used = std::min<std::size_t>(
                    std::size_t( 1 ) << maxLength, 2 + random.below( alphabet - 1 ) );
                const auto lengths = scatteredCompleteCode(
                    alphabet, used, maxLength, seed * 131 + maxLength );
                checkPackedTable( lengths, deflate::LITERAL_TABLE_BITS );
                checkPackedTable( lengths, deflate::DISTANCE_TABLE_BITS );

                const auto distanceLengths = scatteredCompleteCode(
                    30, std::min<std::size_t>( std::size_t( 1 ) << maxLength, 30 ), maxLength,
                    seed * 7 + maxLength );
                checkPackedTable( distanceLengths, deflate::DISTANCE_TABLE_BITS );
            }
        }
        for ( const unsigned maxLength : { 9U, 12U, 15U } ) {
            auto lengths = scatteredCompleteCode( 288, 288, maxLength, 0x286287 + maxLength );
            REQUIRE( ( lengths[286] != 0 ) && ( lengths[287] != 0 ) );
            checkPackedTable( lengths, deflate::LITERAL_TABLE_BITS );
        }
        for ( unsigned length = 1; length <= 15; ++length ) {
            std::vector<std::uint8_t> single( 30, 0 );
            single[length % 30] = static_cast<std::uint8_t>( length );
            checkPackedTable( single, deflate::DISTANCE_TABLE_BITS );
        }
        checkPackedTable( std::vector<std::uint8_t>( 30, 0 ), deflate::DISTANCE_TABLE_BITS );
    }

    /* Packed-table event equivalence sweep: naive vs two-level vs the
     * Decoder's packed literal/length table, on randomized dynamic codings
     * over the full literal/length alphabet — including pathological 15-bit
     * codes — plus the fixed coding, on random bits and on truncated
     * streams (EOF at every boundary near the end). */
    {
        for ( const unsigned maxLength : { 9U, 10U, 12U, 15U } ) {
            for ( std::uint64_t seed = 1; seed <= 3; ++seed ) {
                const auto lengths =
                    makeCompleteCode( 286, maxLength, 0x5EED0 + seed * 17 + maxLength );
                const auto bits = workloads::randomData( 16 * KiB, seed * 31 + maxLength );
                checkEventEquivalence( lengths, bits );
            }
        }
        /* A literal/length code that also codes the invalid 286/287. */
        checkEventEquivalence( scatteredCompleteCode( 288, 288, 12, 0x2871 ),
                               workloads::randomData( 16 * KiB, 0x2872 ) );

        /* The fixed (BTYPE 01) literal coding. */
        std::vector<std::uint8_t> fixedLengths( 288 );
        for ( std::size_t i = 0; i < 144; ++i ) { fixedLengths[i] = 8; }
        for ( std::size_t i = 144; i < 256; ++i ) { fixedLengths[i] = 9; }
        for ( std::size_t i = 256; i < 280; ++i ) { fixedLengths[i] = 7; }
        for ( std::size_t i = 280; i < 288; ++i ) { fixedLengths[i] = 8; }
        checkEventEquivalence( fixedLengths, workloads::randomData( 16 * KiB, 0xF1E0 ) );
    }

    return rapidgzip::test::finish( "testHuffman" );
}
