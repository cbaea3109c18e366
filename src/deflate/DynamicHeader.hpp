#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "../bits/BitReader.hpp"
#include "../common/Error.hpp"
#include "../huffman/HuffmanCoding.hpp"
#include "../huffman/HuffmanCodingDoubleLUT.hpp"
#include "../huffman/PackedDecodeTable.hpp"
#include "definitions.hpp"

namespace rapidgzip::deflate {

/** Main-table widths of the decoder's packed tables and their worst-case
 * sizes with subtables (zlib's `enough 288 11 15` and `enough 32 8 15`). */
inline constexpr unsigned LITERAL_TABLE_BITS = 11;
inline constexpr std::size_t LITERAL_TABLE_SIZE = 2342;
inline constexpr unsigned DISTANCE_TABLE_BITS = 8;
inline constexpr std::size_t DISTANCE_TABLE_SIZE = 402;

namespace detail {

/** Packed-table results per literal/length symbol: literal bytes, end of
 * block, length base plus extra-bit count; 286/287 are invalid codes. */
inline constexpr auto LITERAL_RESULTS = [] () {
    std::array<std::uint32_t, 288> results{};
    for ( std::uint32_t symbol = 0; symbol < 256; ++symbol ) {
        results[symbol] = huffman::ENTRY_LITERAL | huffman::makeResult( symbol, 0 );
    }
    results[END_OF_BLOCK] = huffman::ENTRY_EXCEPTIONAL | huffman::ENTRY_END_OF_BLOCK;
    for ( std::size_t i = 0; i < LENGTH_BASE.size(); ++i ) {
        results[257 + i] = huffman::makeResult( LENGTH_BASE[i], LENGTH_EXTRA_BITS[i] );
    }
    results[286] = huffman::ENTRY_EXCEPTIONAL;
    results[287] = huffman::ENTRY_EXCEPTIONAL;
    return results;
}();

/** Distance base plus extra-bit count; 30/31 are invalid codes. */
inline constexpr auto DISTANCE_RESULTS = [] () {
    std::array<std::uint32_t, 32> results{};
    for ( std::size_t i = 0; i < DISTANCE_BASE.size(); ++i ) {
        results[i] = huffman::makeResult( DISTANCE_BASE[i], DISTANCE_EXTRA_BITS[i] );
    }
    results[30] = huffman::ENTRY_EXCEPTIONAL;
    results[31] = huffman::ENTRY_EXCEPTIONAL;
    return results;
}();

}  // namespace detail

/**
 * The literal/length and distance codings of one block. The distance
 * coding may legally be absent (HDIST = 0 with a zero length) or a single
 * incomplete code (RFC 1951 §3.2.7); `distanceUsable` distinguishes "no
 * distance code defined" from "defined but the symbol was invalid".
 *
 * The decoder's tables are the two packed tables (huffman/PackedDecodeTable:
 * one main table plus subtables per alphabet, rebuilt per Dynamic block
 * without heap allocation; left uninitialized until built). The two-level
 * tables serve only the reference loop (Decoder::setReferenceHuffmanDecoding).
 */
struct DynamicHuffmanCodings
{
    std::array<std::uint32_t, LITERAL_TABLE_SIZE> literalTable;
    std::array<std::uint32_t, DISTANCE_TABLE_SIZE> distanceTable;
    HuffmanCodingDoubleLUT literal;
    HuffmanCodingDoubleLUT distance;
    bool distanceUsable{ false };
};

/**
 * Validate a literal/length and a distance length vector — the acceptance
 * rules shared by Dynamic headers and the fixed coding — and build the
 * packed tables, or with @p referenceTables the two-level ones instead.
 *
 * Acceptance follows zlib (stricter than the letter of RFC 1951 where real
 * encoders are stricter too): the literal/length code must be complete and
 * not over-subscribed; the distance code must be complete unless it has at
 * most one symbol.
 */
[[nodiscard]] inline Error
buildCodings( DynamicHuffmanCodings& codings,
              VectorView<std::uint8_t> literalLengths,
              VectorView<std::uint8_t> distanceLengths,
              bool referenceTables )
{
    /* Distance first: with only 30 symbols it is the cheaper check, which is
     * also why the rapid finder's cascade orders it before the literal code
     * (paper Table 1). */
    const CodeLengthHistogram distanceHistogram( distanceLengths );
    codings.distanceUsable = distanceHistogram.codeCount > 0;
    if ( codings.distanceUsable ) {
        if ( !distanceHistogram.isValid() ) {
            return Error::INVALID_DISTANCE_CODING;
        }
        if ( ( distanceHistogram.codeCount > 1 ) && !distanceHistogram.isComplete() ) {
            return Error::NON_OPTIMAL_DISTANCE_CODING;
        }
    }

    const CodeLengthHistogram literalHistogram( literalLengths );
    if ( !literalHistogram.isValid() ) {
        return Error::INVALID_LITERAL_CODING;
    }
    if ( !literalHistogram.isComplete() ) {
        return Error::NON_OPTIMAL_LITERAL_CODING;
    }

    if ( referenceTables ) {
        /* Validated above: construction cannot fail. */
        (void)codings.literal.initializeFromLengths( literalLengths );
        if ( codings.distanceUsable ) {
            (void)codings.distance.initializeFromLengths( distanceLengths );
        }
        return Error::NONE;
    }
    huffman::buildPackedDecodeTable( codings.literalTable.data(), LITERAL_TABLE_BITS,
                                     literalLengths, detail::LITERAL_RESULTS.data(),
                                     literalHistogram );
    /* Without a distance code every slot is invalid, so a length symbol
     * fails at the distance lookup exactly like the reference loop's check. */
    huffman::buildPackedDecodeTable( codings.distanceTable.data(), DISTANCE_TABLE_BITS,
                                     distanceLengths, detail::DISTANCE_RESULTS.data(),
                                     distanceHistogram );
    return Error::NONE;
}

/**
 * Parse a Dynamic block header (everything after the 3 BFINAL/BTYPE bits)
 * and build the two Huffman codings. This is the single source of truth for
 * header acceptance: the naive block finder calls it directly and the rapid
 * finder's cascaded filters reproduce exactly its accept/reject behavior —
 * any divergence shows up as a false negative in testBlockFinder. The
 * precode must be complete too.
 */
[[nodiscard]] inline Error
readDynamicCodings( BitReader& reader, DynamicHuffmanCodings& codings,
                    bool referenceTables = false )
{
    if ( reader.bitsLeft() < MIN_DYNAMIC_HEADER_BITS - 3 ) {
        return Error::TRUNCATED_STREAM;
    }
    const auto literalCount = 257 + static_cast<unsigned>( reader.read( 5 ) );
    const auto distanceCount = 1 + static_cast<unsigned>( reader.read( 5 ) );
    if ( ( literalCount > MAX_LITERAL_SYMBOLS ) || ( distanceCount > MAX_DISTANCE_SYMBOLS ) ) {
        return Error::INVALID_CODE_COUNTS;
    }
    const auto precodeCount = 4 + static_cast<unsigned>( reader.read( 4 ) );

    std::array<std::uint8_t, PRECODE_SYMBOLS> precodeLengths{};
    if ( reader.bitsLeft() < precodeCount * PRECODE_BITS ) {
        return Error::TRUNCATED_STREAM;
    }
    for ( unsigned i = 0; i < precodeCount; ++i ) {
        precodeLengths[PRECODE_ORDER[i]] = static_cast<std::uint8_t>( reader.read( PRECODE_BITS ) );
    }

    HuffmanCoding precode;  /* max length 7 -> 128-entry single-level LUT, cheap to build */
    if ( !precode.initializeFromLengths( { precodeLengths.data(), precodeLengths.size() } ) ) {
        return Error::INVALID_PRECODE;
    }
    if ( !precode.isCompleteCode() ) {
        return Error::NON_OPTIMAL_PRECODE;
    }

    /* Literal/length and distance code lengths form one contiguous
     * precode-encoded array; repeats may cross the boundary. */
    std::array<std::uint8_t, MAX_LITERAL_SYMBOLS + MAX_DISTANCE_SYMBOLS> lengths{};
    const std::size_t totalLengths = literalCount + distanceCount;
    std::size_t position = 0;
    while ( position < totalLengths ) {
        const auto symbol = precode.decode( reader );
        if ( symbol < 0 ) {
            /* A complete precode cannot produce DECODE_INVALID; only EOF. */
            return Error::TRUNCATED_STREAM;
        }
        if ( symbol <= 15 ) {
            lengths[position++] = static_cast<std::uint8_t>( symbol );
            continue;
        }
        std::size_t repeat = 0;
        std::uint8_t value = 0;
        if ( symbol == 16 ) {
            if ( position == 0 ) {
                return Error::INVALID_CODE_LENGTHS;  /* no previous length to repeat */
            }
            if ( reader.bitsLeft() < 2 ) {
                return Error::TRUNCATED_STREAM;
            }
            repeat = 3 + reader.read( 2 );
            value = lengths[position - 1];
        } else if ( symbol == 17 ) {
            if ( reader.bitsLeft() < 3 ) {
                return Error::TRUNCATED_STREAM;
            }
            repeat = 3 + reader.read( 3 );
        } else {  /* symbol == 18 */
            if ( reader.bitsLeft() < 7 ) {
                return Error::TRUNCATED_STREAM;
            }
            repeat = 11 + reader.read( 7 );
        }
        if ( position + repeat > totalLengths ) {
            return Error::INVALID_CODE_LENGTHS;
        }
        for ( std::size_t i = 0; i < repeat; ++i ) {
            lengths[position++] = value;
        }
    }

    return buildCodings( codings, { lengths.data(), literalCount },
                         { lengths.data() + literalCount, distanceCount }, referenceTables );
}

}  // namespace rapidgzip::deflate
