#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "../common/Error.hpp"
#include "../common/Util.hpp"

namespace rapidgzip::formats {

/**
 * From-scratch LZ4 BLOCK codec (the sequence format inside LZ4 frames):
 * token byte = (literalLength << 4) | (matchLength - 4), both nibbles
 * extended by 255-saturated continuation bytes, then literals, then a
 * little-endian 16-bit offset. The final sequence is literals-only. The
 * decoder is the one "our reader" uses; the differential suite pins it
 * byte-exact against liblz4 (vendorLz4DecompressBlock) in both directions —
 * our compressor's output through the vendor decoder and vendor output
 * through ours.
 */

inline constexpr std::size_t LZ4_MIN_MATCH = 4;
/** Spec: a match must not start within the last 12 bytes of the block, and
 * the last 5 bytes are always literals. */
inline constexpr std::size_t LZ4_MATCH_SAFETY_MARGIN = 12;
inline constexpr std::size_t LZ4_LAST_LITERALS = 5;
inline constexpr std::size_t LZ4_MAX_OFFSET = 65535;

/**
 * Decode one LZ4 block into @p destination (appending). @p history is the
 * number of bytes ALREADY in @p destination that matches may reach back
 * into — 0 for independent blocks, up to 64 KiB of prior output for
 * dependent (linked) blocks. @p maxOutput bounds this block's output.
 * Throws RapidgzipError on any malformed input; never reads or writes out
 * of bounds.
 *
 * Output is written through a cursor into @p destination, which grows once
 * per block to min(maxOutput, 4 MiB) more bytes (the largest LZ4 frame
 * block, so a framed block never grows it again), then geometrically, and
 * is trimmed to the decoded size on return.
 */
inline void
lz4DecompressBlock( BufferView block,
                    std::vector<std::uint8_t>& destination,
                    std::size_t history = 0,
                    std::size_t maxOutput = 512 * MiB )
{
    const auto* input = block.data();
    const auto* const inputEnd = input + block.size();
    const auto base = destination.size();
    if ( history > base ) {
        throw RapidgzipError( "LZ4 history exceeds the decoded prefix" );
    }

    const auto readExtension = [&input, inputEnd] ( std::size_t value ) {
        if ( value != 15 ) {
            return value;
        }
        while ( true ) {
            if ( input >= inputEnd ) {
                throw RapidgzipError( "Truncated LZ4 block (length extension)" );
            }
            const auto byte = *input++;
            value += byte;
            if ( byte != 255 ) {
                return value;
            }
        }
    };

    if ( block.empty() ) {
        throw RapidgzipError( "Empty LZ4 block" );
    }

    /* Decoded bytes end at `out.end`; on every exit, also by exception, the
     * destination is trimmed there. */
    struct TrimOnExit
    {
        std::vector<std::uint8_t>& vector;
        std::size_t end;
        ~TrimOnExit() { vector.resize( end ); }
    } out{ destination, base };
    /* Room for @p length more bytes (the caller checked maxOutput). */
    const auto makeRoom = [&] ( std::size_t length ) {
        if ( out.end + length > destination.size() ) {
            const auto grown = std::max( out.end + length,
                                         destination.size() + ( destination.size() - base ) );
            destination.resize( std::min( grown, base + maxOutput ) );
        }
    };
    destination.resize( base + std::min<std::size_t>( maxOutput, 4 * MiB ) );

    while ( true ) {
        if ( input >= inputEnd ) {
            /* The last sequence must end the block via its literals; a block
             * exhausted right after a match is malformed. */
            throw RapidgzipError( "Truncated LZ4 block (missing final literals)" );
        }
        const auto token = *input++;

        auto literalLength = readExtension( token >> 4U );
        if ( literalLength > static_cast<std::size_t>( inputEnd - input ) ) {
            throw RapidgzipError( "Truncated LZ4 block (literals)" );
        }
        if ( out.end - base + literalLength > maxOutput ) {
            throw RapidgzipError( "LZ4 block exceeds its output bound" );
        }
        if ( literalLength > 0 ) {
            makeRoom( literalLength );
            std::memcpy( destination.data() + out.end, input, literalLength );
            out.end += literalLength;
            input += literalLength;
        }

        if ( input == inputEnd ) {
            /* Last sequence: literals only, no offset. A block that ends
             * with a match-carrying token instead is malformed. */
            return;
        }

        if ( inputEnd - input < 2 ) {
            throw RapidgzipError( "Truncated LZ4 block (offset)" );
        }
        const std::size_t offset = static_cast<std::size_t>( input[0] )
                                   | ( static_cast<std::size_t>( input[1] ) << 8U );
        input += 2;
        if ( offset == 0 ) {
            throw RapidgzipError( "Invalid zero offset in LZ4 block" );
        }
        if ( offset > out.end - base + history ) {
            throw RapidgzipError( "LZ4 match reaches before the available history" );
        }

        const auto matchLength = readExtension( token & 0xFU ) + LZ4_MIN_MATCH;
        if ( out.end - base + matchLength > maxOutput ) {
            throw RapidgzipError( "LZ4 block exceeds its output bound" );
        }
        makeRoom( matchLength );
        auto* const target = destination.data() + out.end;
        const auto* const source = target - offset;
        if ( offset >= matchLength ) {
            std::memcpy( target, source, matchLength );
        } else {
            /* Overlapping match (offset < length), the RLE idiom: each byte
             * may copy one written earlier in this same match. */
            for ( std::size_t i = 0; i < matchLength; ++i ) {
                target[i] = source[i];
            }
        }
        out.end += matchLength;
    }
}

/**
 * Greedy hash-table LZ4 block compressor. Emits vendor-decodable blocks:
 * matches ≥ 4 bytes within a 64 KiB window, last-5-literals and
 * no-match-in-last-12 end conditions respected. Returns the compressed
 * block; callers store the input verbatim instead when the result is not
 * smaller (the frame format's uncompressed-block flag).
 */
[[nodiscard]] inline std::vector<std::uint8_t>
lz4CompressBlock( BufferView data )
{
    std::vector<std::uint8_t> result;
    result.reserve( data.size() / 2 + 64 );

    const auto emitLength = [&result] ( std::size_t value ) {
        while ( value >= 255 ) {
            result.push_back( 255 );
            value -= 255;
        }
        result.push_back( static_cast<std::uint8_t>( value ) );
    };
    const auto emitSequence = [&] ( std::size_t literalBegin, std::size_t literalEnd,
                                    std::size_t offset, std::size_t matchLength ) {
        const auto literalLength = literalEnd - literalBegin;
        const auto litNibble = std::min<std::size_t>( literalLength, 15 );
        std::size_t matchNibble = 0;
        if ( matchLength > 0 ) {
            matchNibble = std::min<std::size_t>( matchLength - LZ4_MIN_MATCH, 15 );
        }
        result.push_back( static_cast<std::uint8_t>( ( litNibble << 4U ) | matchNibble ) );
        if ( litNibble == 15 ) {
            emitLength( literalLength - 15 );
        }
        result.insert( result.end(), data.data() + literalBegin, data.data() + literalEnd );
        if ( matchLength > 0 ) {
            result.push_back( static_cast<std::uint8_t>( offset & 0xFFU ) );
            result.push_back( static_cast<std::uint8_t>( offset >> 8U ) );
            if ( matchNibble == 15 ) {
                emitLength( matchLength - LZ4_MIN_MATCH - 15 );
            }
        }
    };

    /* Blocks shorter than the safety margin cannot contain a match. */
    if ( data.size() < LZ4_MATCH_SAFETY_MARGIN + 1 ) {
        emitSequence( 0, data.size(), 0, 0 );
        return result;
    }

    constexpr std::size_t HASH_BITS = 14;
    std::vector<std::uint32_t> hashTable( std::size_t( 1 ) << HASH_BITS, 0 );  /* position + 1 */
    const auto read32 = [&data] ( std::size_t position ) {
        std::uint32_t value;
        std::memcpy( &value, data.data() + position, sizeof( value ) );
        return value;
    };
    const auto hash = [] ( std::uint32_t value ) {
        return ( value * 2654435761U ) >> ( 32U - HASH_BITS );
    };

    const auto matchLimit = data.size() - LZ4_LAST_LITERALS;
    const auto lastMatchStart = data.size() - LZ4_MATCH_SAFETY_MARGIN;
    std::size_t anchor = 0;
    std::size_t position = 0;
    while ( position < lastMatchStart ) {
        const auto sequence = read32( position );
        const auto slot = hash( sequence );
        const auto candidate = hashTable[slot];
        hashTable[slot] = static_cast<std::uint32_t>( position + 1 );

        if ( ( candidate != 0 )
             && ( position + 1 - candidate <= LZ4_MAX_OFFSET )
             && ( read32( candidate - 1 ) == sequence ) ) {
            const auto matchStart = static_cast<std::size_t>( candidate - 1 );
            auto length = LZ4_MIN_MATCH;
            while ( ( position + length < matchLimit )
                    && ( data[matchStart + length] == data[position + length] ) ) {
                ++length;
            }
            emitSequence( anchor, position, position - matchStart, length );
            position += length;
            anchor = position;
        } else {
            ++position;
        }
    }
    emitSequence( anchor, data.size(), 0, 0 );
    return result;
}

}  // namespace rapidgzip::formats
