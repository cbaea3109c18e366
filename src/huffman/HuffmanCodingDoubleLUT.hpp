#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "HuffmanCodingBase.hpp"

namespace rapidgzip {

/**
 * Two-level zlib-style LUT decoder: a root table indexed by the first
 * ROOT_BITS peeked bits resolves short codes directly; longer codes chain
 * into per-prefix subtables sized for the longest code sharing that prefix.
 * Construction touches only 2^ROOT_BITS + small subtables instead of
 * 2^maxCodeLength entries, so rebuilding the tables every Dynamic Deflate
 * block (~every 50-100 KiB of output) stays cheap even for pathological
 * 15-bit codes — at the price of one extra dependent load when decoding a
 * long code.
 */
class HuffmanCodingDoubleLUT final : public HuffmanCodingBase<HuffmanCodingDoubleLUT>
{
    friend class HuffmanCodingBase<HuffmanCodingDoubleLUT>;

public:
    static constexpr unsigned ROOT_BITS = 9;

    [[nodiscard]] int
    decode( BitReader& bitReader ) const
    {
        if ( bitReader.eof() ) {
            return DECODE_EOF;
        }
        const auto bits = bitReader.peek( m_maxLength );
        const auto& root = m_rootTable[bits & m_rootMask];
        if ( !root.isSubtable ) {
            if ( root.length == 0 ) {
                return DECODE_INVALID;
            }
            if ( root.length > bitReader.bitsLeft() ) {
                return DECODE_EOF;  /* matched only thanks to EOF zero-padding */
            }
            bitReader.skip( root.length );
            return static_cast<int>( root.value );
        }
        const auto subIndex = ( bits >> m_rootBits ) & ( ( std::uint64_t( 1 ) << root.length ) - 1U );
        const auto& sub = m_subTable[root.value + subIndex];
        if ( sub.length == 0 ) {
            return DECODE_INVALID;
        }
        if ( sub.length > bitReader.bitsLeft() ) {
            return DECODE_EOF;
        }
        bitReader.skip( sub.length );
        return sub.symbol;
    }

private:
    struct RootEntry
    {
        std::uint16_t value{ 0 };   /* symbol, or subtable offset when isSubtable */
        std::uint8_t length{ 0 };   /* code length, or subtable index bit count */
        std::uint8_t isSubtable{ 0 };
    };

    struct SubEntry
    {
        std::uint16_t symbol{ 0 };
        std::uint8_t length{ 0 };  /* FULL code length (root + sub bits consumed) */
    };

    [[nodiscard]] bool
    buildLookupTables()
    {
        m_rootBits = std::min( ROOT_BITS, m_maxLength );
        m_rootMask = ( std::uint64_t( 1 ) << m_rootBits ) - 1U;
        m_rootTable.assign( std::size_t( 1 ) << m_rootBits, RootEntry{} );
        m_subTable.clear();

        /* Short codes resolve in the root table alone. */
        for ( const auto& code : m_codes ) {
            if ( code.length > m_rootBits ) {
                continue;
            }
            const RootEntry entry{ code.symbol, code.length, 0 };
            const auto stride = std::size_t( 1 ) << code.length;
            for ( std::size_t index = code.reversedCode; index < m_rootTable.size();
                  index += stride ) {
                m_rootTable[index] = entry;
            }
        }

        /* Long codes: size each prefix's subtable by its longest member. */
        std::vector<std::uint8_t> subBitsPerPrefix( m_rootTable.size(), 0 );
        for ( const auto& code : m_codes ) {
            if ( code.length <= m_rootBits ) {
                continue;
            }
            const auto prefix = code.reversedCode & m_rootMask;
            subBitsPerPrefix[prefix] = std::max<std::uint8_t>(
                subBitsPerPrefix[prefix],
                static_cast<std::uint8_t>( code.length - m_rootBits ) );
        }
        for ( std::size_t prefix = 0; prefix < subBitsPerPrefix.size(); ++prefix ) {
            const auto subBits = subBitsPerPrefix[prefix];
            if ( subBits == 0 ) {
                continue;
            }
            if ( m_subTable.size() + ( std::size_t( 1 ) << subBits ) > UINT16_MAX + std::size_t( 1 ) ) {
                return false;  /* cannot address the subtable from a uint16_t */
            }
            m_rootTable[prefix] = RootEntry{ static_cast<std::uint16_t>( m_subTable.size() ),
                                             subBits, 1 };
            m_subTable.resize( m_subTable.size() + ( std::size_t( 1 ) << subBits ) );
        }
        for ( const auto& code : m_codes ) {
            if ( code.length <= m_rootBits ) {
                continue;
            }
            const auto prefix = code.reversedCode & m_rootMask;
            const auto& root = m_rootTable[prefix];
            const auto subCode = code.reversedCode >> m_rootBits;
            const auto stride = std::size_t( 1 ) << ( code.length - m_rootBits );
            const auto subSize = std::size_t( 1 ) << root.length;
            for ( std::size_t index = subCode; index < subSize; index += stride ) {
                m_subTable[root.value + index] = SubEntry{ code.symbol, code.length };
            }
        }
        return true;
    }

    std::vector<RootEntry> m_rootTable;
    std::vector<SubEntry> m_subTable;
    unsigned m_rootBits{ ROOT_BITS };
    std::uint64_t m_rootMask{ 0 };
};

}  // namespace rapidgzip
