#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#include "../bits/BitReader.hpp"
#include "../common/Error.hpp"
#include "../common/Util.hpp"
#include "DecodedData.hpp"
#include "DynamicHeader.hpp"
#include "definitions.hpp"

namespace rapidgzip::deflate {

namespace detail {

/** The fixed (BTYPE 01) codings, built once per process (magic static). */
struct FixedCodings
{
    FixedCodings()
    {
        std::array<std::uint8_t, 288> literalLengths{};
        for ( std::size_t i = 0; i < 144; ++i ) {
            literalLengths[i] = 8;
        }
        for ( std::size_t i = 144; i < 256; ++i ) {
            literalLengths[i] = 9;
        }
        for ( std::size_t i = 256; i < 280; ++i ) {
            literalLengths[i] = 7;
        }
        for ( std::size_t i = 280; i < 288; ++i ) {
            literalLengths[i] = 8;
        }
        std::array<std::uint8_t, 32> distanceLengths{};
        distanceLengths.fill( 5 );
        /* Both codes are complete by construction, so building cannot fail.
         * Both table sets: the reference loop decodes Fixed blocks too. */
        for ( const bool referenceTables : { false, true } ) {
            (void)buildCodings( codings, { literalLengths.data(), literalLengths.size() },
                                { distanceLengths.data(), distanceLengths.size() },
                                referenceTables );
        }
    }

    DynamicHuffmanCodings codings;
};

[[nodiscard]] inline const DynamicHuffmanCodings&
fixedCodings()
{
    static const FixedCodings instance;
    return instance.codings;
}

}  // namespace detail

/**
 * From-scratch raw-Deflate decoder that can start at ANY bit offset — the
 * first stage of the paper's two-stage scheme (§3.3). Two operating modes:
 *
 *  - window known (setInitialWindow): conventional 8-bit decoding into
 *    DecodedData::plain — used for the first chunk of a stream and for
 *    sequential re-decodes where the window has already been propagated;
 *  - window unknown (default): 16-bit marker decoding into
 *    DecodedData::marked, falling back to conventional decoding once the
 *    trailing WINDOW_SIZE outputs are marker-free (every later
 *    back-reference then provably resolves inside the chunk).
 *
 * decode() consumes whole blocks and stops at a block boundary: before a
 * block whose header would start at or after @p untilBitOffset, after the
 * final block (BFINAL), once @p maxBytes have been produced, or on error.
 * The bit offset of the stopping boundary is reported so chunks can be
 * stitched exactly.
 */
class Decoder
{
public:
    struct Result
    {
        Error error{ Error::NONE };
        bool reachedFinalBlock{ false };
        /** Bit offset of the first unconsumed block boundary: where the next
         * block (or the gzip footer, after BFINAL) begins. On error: the
         * boundary before the failed block. */
        std::size_t endBitOffset{ 0 };
        std::size_t blockCount{ 0 };
    };

    /** Provide the up-to-WINDOW_SIZE bytes preceding the stream position;
     * switches the decoder to conventional 8-bit decoding from the start.
     * An empty view is a valid window (start of a gzip member). */
    void
    setInitialWindow( BufferView window )
    {
        const auto size = std::min( window.size(), WINDOW_SIZE );
        m_windowSize = size;
        for ( std::size_t i = 0; i < size; ++i ) {
            m_window[i] = window[window.size() - size + i];
        }
        m_plainMode = true;
    }

    /** The next input is the LEN/NLEN field of a stored block whose 3
     * header bits lie unreadably before the discovered offset (the
     * NonCompressedBlockFinder reports the byte-aligned LEN position).
     * BFINAL is assumed 0; a wrong assumption surfaces as a decode error in
     * a later block and is handled by the chunk fetcher's re-decode path. */
    void
    setStartAtStoredData( bool startAtStoredData ) noexcept
    {
        m_startAtStoredData = startAtStoredData;
    }

    /** Decode Huffman blocks symbol-by-symbol through the two-level LUT with
     * checked reads — the pre-optimization hot path, kept as the bit-exact
     * reference for the equivalence tests and the before/after benchmark
     * (bench/components_hotpath.cpp). */
    void
    setReferenceHuffmanDecoding( bool reference ) noexcept
    {
        m_referenceDecoding = reference;
    }

    /** Process-global default adopted by newly constructed Decoders — the
     * benchmark hook for A/B-ing code that builds its Decoders internally
     * (the chunk fetcher pipeline). Not for production use. */
    [[nodiscard]] static std::atomic<bool>&
    globalReferenceHuffmanDecoding() noexcept
    {
        static std::atomic<bool> flag{ false };
        return flag;
    }

    [[nodiscard]] Result
    decode( BitReader& reader,
            DecodedData& data,
            std::size_t untilBitOffset = std::numeric_limits<std::size_t>::max(),
            std::size_t maxBytes = std::numeric_limits<std::size_t>::max() )
    {
        if ( m_plainMode && data.plain.empty() ) {
            data.plain.emplace_back();
        }
        /* Mid-block overrun allowance (saturating): blocks normally end well
         * before this; only a runaway block from a false block-finder
         * positive trips the in-block limit. */
        constexpr auto LIMIT = std::numeric_limits<std::size_t>::max();
        m_hardByteLimit = maxBytes > LIMIT - 2 * MAX_MATCH_LENGTH
                          ? LIMIT
                          : maxBytes + 2 * MAX_MATCH_LENGTH;

        Result result;
        result.endBitOffset = reader.tell();
        bool pendingStoredData = m_startAtStoredData;
        while ( true ) {
            if ( ( reader.tell() >= untilBitOffset ) || ( m_totalDecoded >= maxBytes ) ) {
                break;
            }

            std::uint64_t isFinal = 0;
            std::uint64_t type = BLOCK_TYPE_STORED;
            if ( pendingStoredData ) {
                pendingStoredData = false;
            } else {
                if ( reader.bitsLeft() < 3 ) {
                    result.error = Error::TRUNCATED_STREAM;
                    break;
                }
                isFinal = reader.read( 1 );
                type = reader.read( 2 );
            }

            switch ( type ) {
            case BLOCK_TYPE_STORED:
                result.error = decodeStoredBlock( reader, data );
                break;
            case BLOCK_TYPE_FIXED:
                result.error = decodeHuffmanBlock( reader, data, detail::fixedCodings() );
                break;
            case BLOCK_TYPE_DYNAMIC:
                /* The reference path builds only the two-level tables — the
                 * exact pre-optimization construction cost — so before/after
                 * benchmarks compare true end-to-end costs. */
                result.error = readDynamicCodings( reader, m_codings, m_referenceDecoding );
                if ( result.error == Error::NONE ) {
                    result.error = decodeHuffmanBlock( reader, data, m_codings );
                }
                break;
            default:
                result.error = Error::INVALID_BLOCK_TYPE;
                break;
            }
            if ( result.error != Error::NONE ) {
                break;
            }

            ++result.blockCount;
            result.endBitOffset = reader.tell();
            maybeFallBackToPlain( data );
            if ( isFinal != 0 ) {
                result.reachedFinalBlock = true;
                break;
            }
        }
        return result;
    }

    [[nodiscard]] std::size_t
    totalDecoded() const noexcept
    {
        return m_totalDecoded;
    }

    /** True once the decoder switched (or started) in conventional 8-bit mode. */
    [[nodiscard]] bool
    inPlainMode() const noexcept
    {
        return m_plainMode;
    }

private:
    /** Stored block: LEN bytes copied in bulk straight from the input. */
    [[nodiscard]] Error
    decodeStoredBlock( BitReader& reader, DecodedData& data )
    {
        reader.alignToByte();
        if ( reader.bitsLeft() < 32 ) {
            return Error::TRUNCATED_STREAM;
        }
        const auto length = static_cast<std::size_t>( reader.read( 16 ) );
        const auto complement = reader.read( 16 );
        if ( ( length ^ complement ) != 0xFFFFU ) {
            return Error::INVALID_STORED_LENGTH;
        }
        if ( reader.bitsLeft() < length * 8 ) {
            return Error::TRUNCATED_STREAM;
        }
        /* Same output as emitting byte by byte and stopping at the first
         * byte that reaches the hard limit. */
        auto count = length;
        const auto exceeded = ( length > 0 ) && ( m_totalDecoded + length >= m_hardByteLimit );
        if ( exceeded ) {
            count = m_totalDecoded >= m_hardByteLimit ? 1 : m_hardByteLimit - m_totalDecoded;
        }
        const auto* const source = reader.data() + reader.tell() / 8U;
        if ( m_plainMode ) {
            auto& out = data.plain.back().data;
            out.resize( out.size() + count );
            std::memcpy( out.data() + out.size() - count, source, count );
        } else {
            auto& out = data.marked;
            out.resize( out.size() + count );
            std::copy( source, source + count, out.data() + out.size() - count );
        }
        reader.seek( reader.tell() + count * 8U );
        m_totalDecoded += count;
        return exceeded ? Error::EXCEEDED_OUTPUT_LIMIT : Error::NONE;
    }

    [[nodiscard]] Error
    decodeHuffmanBlock( BitReader& reader,
                        DecodedData& data,
                        const DynamicHuffmanCodings& codings )
    {
        if ( m_referenceDecoding ) {
            return decodeHuffmanBlockReference( reader, data, codings );
        }
        if ( m_plainMode ) {
            return decodeHuffmanBlockFast( reader, data.plain.back().data, codings );
        }
        return decodeHuffmanBlockFast( reader, data.marked, codings );
    }

    [[nodiscard]] Error
    decodeHuffmanBlockReference( BitReader& reader,
                                 DecodedData& data,
                                 const DynamicHuffmanCodings& codings )
    {
        while ( true ) {
            const auto symbol = codings.literal.decode( reader );
            if ( symbol < 0 ) {
                return symbol == HuffmanCodingDoubleLUT::DECODE_EOF ? Error::TRUNCATED_STREAM
                                                                    : Error::INVALID_SYMBOL;
            }
            if ( symbol < static_cast<int>( END_OF_BLOCK ) ) {
                emitLiteral( data, static_cast<std::uint8_t>( symbol ) );
            } else if ( symbol == static_cast<int>( END_OF_BLOCK ) ) {
                return Error::NONE;
            } else {
                if ( symbol > 285 ) {
                    return Error::INVALID_SYMBOL;
                }
                const auto lengthIndex = static_cast<std::size_t>( symbol - 257 );
                const auto lengthExtra = LENGTH_EXTRA_BITS[lengthIndex];
                if ( reader.bitsLeft() < lengthExtra ) {
                    return Error::TRUNCATED_STREAM;
                }
                const std::size_t length = LENGTH_BASE[lengthIndex]
                                           + ( lengthExtra > 0 ? reader.read( lengthExtra ) : 0 );

                if ( !codings.distanceUsable ) {
                    return Error::INVALID_DISTANCE;
                }
                const auto distanceSymbol = codings.distance.decode( reader );
                if ( distanceSymbol < 0 ) {
                    return distanceSymbol == HuffmanCodingDoubleLUT::DECODE_EOF
                           ? Error::TRUNCATED_STREAM
                           : Error::INVALID_DISTANCE;
                }
                if ( distanceSymbol > 29 ) {
                    return Error::INVALID_DISTANCE;
                }
                const auto distanceExtra = DISTANCE_EXTRA_BITS[distanceSymbol];
                if ( reader.bitsLeft() < distanceExtra ) {
                    return Error::TRUNCATED_STREAM;
                }
                const std::size_t distance =
                    DISTANCE_BASE[distanceSymbol]
                    + ( distanceExtra > 0 ? reader.read( distanceExtra ) : 0 );

                const auto error = emitMatch( data, length, distance );
                if ( error != Error::NONE ) {
                    return error;
                }
            }
            if ( m_totalDecoded >= m_hardByteLimit ) {
                return Error::EXCEEDED_OUTPUT_LIMIT;
            }
        }
    }

    /**
     * Raw-cursor view of one output vector (the plain segment or the 16-bit
     * marker buffer): the vector is stretched to its capacity — bookkeeping
     * only, FastVector does not initialize — so emission is plain pointer
     * stores, and the logical size is restored on every exit path.
     */
    template<typename Symbol>
    class OutputBuffer
    {
    public:
        explicit OutputBuffer( FastVector<Symbol>& vector ) :
            m_vector( vector ),
            m_size( vector.size() )
        {
            m_vector.resize( m_vector.capacity() );
        }

        ~OutputBuffer()
        {
            m_vector.resize( m_size );
        }

        OutputBuffer( const OutputBuffer& ) = delete;
        OutputBuffer& operator=( const OutputBuffer& ) = delete;

        /** Make room for @p count symbols past the cursor. */
        void
        reserve( std::size_t count )
        {
            if ( m_vector.size() - m_size < count ) {
                m_vector.resize( std::max( m_vector.size() + m_vector.size() / 2,
                                           m_size + count + GROWTH_SLACK ) );
            }
        }

        [[nodiscard]] Symbol* begin() noexcept { return m_vector.data(); }
        [[nodiscard]] Symbol* end() noexcept { return m_vector.data() + m_vector.size(); }
        [[nodiscard]] Symbol* cursor() noexcept { return m_vector.data() + m_size; }

        void
        setCursor( Symbol* cursor ) noexcept
        {
            m_size = static_cast<std::size_t>( cursor - m_vector.data() );
        }

    private:
        FastVector<Symbol>& m_vector;
        std::size_t m_size;
    };

    /** Slab growth floor for the output buffers; pooled buffers reach their
     * steady-state capacity after the first chunk, making this moot. */
    static constexpr std::size_t GROWTH_SLACK = 64 * 1024;

    /** Input bytes the fast loop needs ahead of the refill position at the
     * top of an iteration: at most two branch-free refills, each reading 8
     * bytes and advancing at most 7. */
    static constexpr std::size_t FAST_INPUT_MARGIN = 16;

    /** Match copies move words of 8 symbols (8 bytes plain, 16 bytes in
     * marker mode): 5 unconditional ones cover most matches, longer ones
     * continue word by word. */
    static constexpr std::size_t COPY_WORD_SYMBOLS = 8;

    /** Output symbols one fast-loop iteration may write past its start: two
     * literals, then a maximum match whose last word overshoots (or 5
     * unconditional words for a short one). */
    static constexpr std::size_t FAST_OUTPUT_SLACK = 2 + MAX_MATCH_LENGTH + 5 * COPY_WORD_SYMBOLS;

    /** Most bits a distance costs: a 15-bit code plus 13 extra bits. */
    static constexpr unsigned DISTANCE_MAX_BITS = 15 + 13;

    /**
     * One Huffman block in either output mode — where paper Table 2 puts
     * most of the decode time. The fast loop runs while the output buffer
     * has FAST_OUTPUT_SLACK room below the hard byte limit and the input
     * allows branch-free refills; near the end of the input the checked
     * tail loop finishes the block on the same tables with the reference
     * loop's end-of-input semantics.
     */
    template<typename Symbol>
    [[nodiscard]] Error
    decodeHuffmanBlockFast( BitReader& reader,
                            FastVector<Symbol>& vector,
                            const DynamicHuffmanCodings& codings )
    {
        OutputBuffer<Symbol> output( vector );
        while ( true ) {
            /* Twice the slack, so a fast run always has room to start. */
            output.reserve( 2 * FAST_OUTPUT_SLACK );
            auto* const start = output.cursor();
            auto* out = start;
            auto* fastEnd = output.end() - FAST_OUTPUT_SLACK;
            const auto limitLeft = m_hardByteLimit - m_totalDecoded;  /* > 0 here */
            if ( static_cast<std::size_t>( fastEnd - out ) > limitLeft ) {
                fastEnd = out + limitLeft;
            }
            bool blockDone = false;
            const auto error = decodeFast( reader, codings, output.begin(), out, fastEnd,
                                           blockDone );
            output.setCursor( out );
            m_totalDecoded += static_cast<std::size_t>( out - start );
            if ( blockDone ) {
                return error;
            }
            if ( m_totalDecoded >= m_hardByteLimit ) {
                return Error::EXCEEDED_OUTPUT_LIMIT;
            }
            if ( out < fastEnd ) {
                return decodeTail( reader, codings, output );  /* input near its end */
            }
        }
    }

    /**
     * The libdeflate-style fast loop. Every iteration starts with >= 56
     * buffered bits and the next literal/length entry already loaded; the
     * worst case consumed before the distance (two literals, a length via a
     * subtable: 11 + 11 + 11 + 4 + 5 = 42 bits) leaves room for the 8-bit
     * distance peek, one refill covers the distance (28 bits) plus the
     * preload of the next entry, and a second refill follows that preload,
     * overlapping the match copy. Up to three literals share one refill.
     * Length and distance extra bits are taken from the bit buffer saved
     * before their entry was consumed. Stops at the end of the block or on
     * an error (@p blockDone), or once @p out reaches @p fastEnd or the
     * input gets too short for branch-free refills.
     */
    template<typename Symbol>
    [[nodiscard]] Error
    decodeFast( BitReader& reader,
                const DynamicHuffmanCodings& codings,
                Symbol* const begin,
                Symbol*& outRef,
                Symbol* const fastEnd,
                bool& blockDone )
    {
        constexpr std::uint64_t LITERAL_MASK = ( 1U << LITERAL_TABLE_BITS ) - 1U;
        constexpr std::uint64_t DISTANCE_MASK = ( 1U << DISTANCE_TABLE_BITS ) - 1U;
        using namespace huffman;

        BitReader::RegisterCursor bits( reader );
        if ( ( outRef >= fastEnd ) || !bits.hasBytesAhead( FAST_INPUT_MARGIN ) ) {
            return Error::NONE;
        }
        /* Locals only: output stores may alias any member. */
        const auto* const literalTable = codings.literalTable.data();
        const auto* const distanceTable = codings.distanceTable.data();
        auto* out = outRef;
        const auto pushLiteral = [&out] ( std::uint32_t entry ) {
            *out++ = static_cast<Symbol>( static_cast<std::uint8_t>( entry >> 16U ) );
        };

        auto error = Error::NONE;
        if ( bits.bufferedBits() < 56 ) {
            bits.refillBranchless();
        }
        auto entry = literalTable[bits.peekBufferUnsafe() & LITERAL_MASK];
        do {
            auto saved = bits.peekBufferUnsafe();
            bits.consumeUnsafe( static_cast<std::uint8_t>( entry ) );
            if ( ( entry & ENTRY_LITERAL ) != 0 ) {
                auto literal = entry;
                entry = literalTable[bits.peekBufferUnsafe() & LITERAL_MASK];
                saved = bits.peekBufferUnsafe();
                bits.consumeUnsafe( static_cast<std::uint8_t>( entry ) );
                pushLiteral( literal );
                if ( ( entry & ENTRY_LITERAL ) != 0 ) {
                    literal = entry;
                    entry = literalTable[bits.peekBufferUnsafe() & LITERAL_MASK];
                    saved = bits.peekBufferUnsafe();
                    bits.consumeUnsafe( static_cast<std::uint8_t>( entry ) );
                    pushLiteral( literal );
                    if ( ( entry & ENTRY_LITERAL ) != 0 ) {
                        literal = entry;
                        entry = literalTable[bits.peekBufferUnsafe() & LITERAL_MASK];
                        bits.refillBranchless();
                        pushLiteral( literal );
                        continue;
                    }
                }
            }

            if ( __builtin_expect( ( entry & ENTRY_EXCEPTIONAL ) != 0, 0 ) ) {
                if ( ( entry & ENTRY_SUBTABLE ) != 0 ) {
                    entry = literalTable[subtableIndex( entry, bits.peekBufferUnsafe() )];
                    saved = bits.peekBufferUnsafe();
                    bits.consumeUnsafe( static_cast<std::uint8_t>( entry ) );
                    if ( ( entry & ENTRY_LITERAL ) != 0 ) {
                        const auto literal = entry;
                        entry = literalTable[bits.peekBufferUnsafe() & LITERAL_MASK];
                        bits.refillBranchless();
                        pushLiteral( literal );
                        continue;
                    }
                }
                if ( ( entry & ENTRY_EXCEPTIONAL ) != 0 ) {
                    /* End of block, or an invalid symbol (286/287). */
                    error = ( entry & ENTRY_END_OF_BLOCK ) != 0 ? Error::NONE
                                                                : Error::INVALID_SYMBOL;
                    blockDone = true;
                    break;
                }
            }

            const auto length = ( entry >> 16U ) + extraBitsValue( saved, entry );
            entry = distanceTable[bits.peekBufferUnsafe() & DISTANCE_MASK];
            if ( bits.bufferedBits() < DISTANCE_MAX_BITS + LITERAL_TABLE_BITS ) {
                bits.refillBranchless();
            }
            if ( __builtin_expect( ( entry & ENTRY_EXCEPTIONAL ) != 0, 0 ) ) {
                if ( ( entry & ENTRY_SUBTABLE ) != 0 ) {
                    bits.consumeUnsafe( static_cast<std::uint8_t>( entry ) );
                    entry = distanceTable[subtableIndex( entry, bits.peekBufferUnsafe() )];
                }
                if ( ( entry & ENTRY_EXCEPTIONAL ) != 0 ) {
                    /* No distance code, 30/31, or a pattern an incomplete
                     * code leaves unused. */
                    error = Error::INVALID_DISTANCE;
                    blockDone = true;
                    break;
                }
            }
            saved = bits.peekBufferUnsafe();
            bits.consumeUnsafe( static_cast<std::uint8_t>( entry ) );
            const auto distance = static_cast<std::size_t>( ( entry >> 16U )
                                                            + extraBitsValue( saved, entry ) );

            entry = literalTable[bits.peekBufferUnsafe() & LITERAL_MASK];
            bits.refillBranchless();

            const auto position = static_cast<std::size_t>( out - begin );
            if ( __builtin_expect( distance > position, 0 ) ) {
                /* Reaches behind the buffer start: the seeded window, or
                 * markers for the unknown one. */
                error = copyMatchChecked( begin, out, length, distance );
                if ( error != Error::NONE ) {
                    blockDone = true;
                    break;
                }
                continue;
            }
            /* Copied markers propagate verbatim. */
            copyMatch( out, length, distance );
            out += length;
        } while ( ( out < fastEnd ) && bits.hasBytesAhead( FAST_INPUT_MARGIN ) );

        outRef = out;
        return error;
    }

    /**
     * In-buffer match copy (distance <= position) that may write up to
     * FAST_OUTPUT_SLACK past the match end: unconditional 8-symbol words
     * when a word never overlaps its own destination, a broadcast word for
     * distance 1, and an element loop for the other short distances.
     */
    template<typename Symbol>
    static void
    copyMatch( Symbol* destination, std::size_t length, std::size_t distance ) noexcept
    {
        constexpr auto WORD = COPY_WORD_SYMBOLS;
        constexpr auto WORD_BYTES = WORD * sizeof( Symbol );
        const auto* source = destination - distance;
        auto* const end = destination + length;
        if ( distance >= WORD ) {
            const auto copyWord = [&] () {
                std::memcpy( destination, source, WORD_BYTES );
                destination += WORD;
                source += WORD;
            };
            copyWord();
            copyWord();
            copyWord();
            copyWord();
            copyWord();
            while ( destination < end ) {
                copyWord();
            }
        } else if ( distance == 1 ) {
            constexpr std::uint64_t SPREAD = sizeof( Symbol ) == 1 ? 0x0101'0101'0101'0101ULL
                                                                   : 0x0001'0001'0001'0001ULL;
            const std::uint64_t spread = SPREAD * *source;
            const std::uint64_t word[2] = { spread, spread };
            const auto storeWord = [&] () {
                std::memcpy( destination, word, WORD_BYTES );
                destination += WORD;
            };
            storeWord();
            storeWord();
            storeWord();
            storeWord();
            storeWord();
            while ( destination < end ) {
                storeWord();
            }
        } else {
            for ( ; destination < end; ++destination ) {
                *destination = *( destination - distance );
            }
        }
    }

    /**
     * Exact match copy with the full semantics: in plain mode the part
     * behind the buffer start comes from the seeded window (the window and
     * the output never interleave within one match); in marker mode it
     * becomes markers.
     */
    template<typename Symbol>
    [[nodiscard]] Error
    copyMatchChecked( Symbol* begin, Symbol*& out, std::size_t length,
                      std::size_t distance ) noexcept
    {
        const auto position = static_cast<std::size_t>( out - begin );
        if constexpr ( std::is_same_v<Symbol, std::uint8_t> ) {
            if ( distance > position + m_windowSize ) {
                return Error::EXCEEDED_WINDOW;
            }
            std::size_t copied = 0;
            if ( distance > position ) {
                copied = std::min( length, distance - position );
                std::memcpy( out, m_window.data() + m_windowSize - ( distance - position ),
                             copied );
            }
            for ( ; copied < length; ++copied ) {
                out[copied] = *( out + copied - distance );
            }
            out += length;
        } else {
            /* distance <= 32768 and position >= 0 bound the marker offset. */
            for ( auto i = position; i < position + length; ++i ) {
                begin[i] = distance <= i ? begin[i - distance]
                                         : static_cast<std::uint16_t>(
                                             MARKER_BASE + ( WINDOW_SIZE - ( distance - i ) ) );
            }
            out += length;
        }
        return Error::NONE;
    }

    /**
     * One symbol from a packed table with the reference loop's end-of-input
     * semantics: TRUNCATED_STREAM at the end of the input or when the
     * codeword matched only thanks to the zero padding, @p invalid for a
     * bit pattern no code matches.
     */
    template<unsigned TABLE_BITS>
    [[nodiscard]] static std::uint32_t
    lookupChecked( BitReader& reader, const std::uint32_t* table, Error invalid, Error& error )
    {
        if ( reader.eof() ) {
            error = Error::TRUNCATED_STREAM;
            return 0;
        }
        const auto bits = reader.peek( CodeLengthHistogram::MAX_CODE_LENGTH );
        auto entry = table[bits & ( ( 1U << TABLE_BITS ) - 1U )];
        auto length = huffman::codewordLength( entry );
        if ( ( entry & huffman::ENTRY_SUBTABLE ) != 0 ) {
            entry = table[huffman::subtableIndex( entry, bits >> TABLE_BITS )];
            length = TABLE_BITS + huffman::codewordLength( entry );
        }
        if ( huffman::codewordLength( entry ) == 0 ) {
            error = invalid;
            return 0;
        }
        if ( length > reader.bitsLeft() ) {
            error = Error::TRUNCATED_STREAM;
            return 0;
        }
        reader.skip( length );
        return entry;
    }

    /** The block's remainder near the end of the input, symbol by symbol
     * with checked reads, in the reference loop's order of checks. */
    template<typename Symbol>
    [[nodiscard]] Error
    decodeTail( BitReader& reader, const DynamicHuffmanCodings& codings,
                OutputBuffer<Symbol>& output )
    {
        using namespace huffman;
        while ( true ) {
            output.reserve( MAX_MATCH_LENGTH );
            auto* out = output.cursor();
            auto error = Error::NONE;
            const auto entry = lookupChecked<LITERAL_TABLE_BITS>(
                reader, codings.literalTable.data(), Error::INVALID_SYMBOL, error );
            if ( error != Error::NONE ) {
                return error;
            }
            if ( ( entry & ENTRY_LITERAL ) != 0 ) {
                *out++ = static_cast<Symbol>( static_cast<std::uint8_t>( entry >> 16U ) );
            } else if ( ( entry & ENTRY_EXCEPTIONAL ) != 0 ) {
                return ( entry & ENTRY_END_OF_BLOCK ) != 0 ? Error::NONE : Error::INVALID_SYMBOL;
            } else {
                const auto lengthExtra = static_cast<std::uint8_t>( entry ) - codewordLength( entry );
                if ( reader.bitsLeft() < lengthExtra ) {
                    return Error::TRUNCATED_STREAM;
                }
                const std::size_t length = ( entry >> 16U )
                                           + ( lengthExtra > 0 ? reader.read( lengthExtra ) : 0 );
                if ( !codings.distanceUsable ) {
                    return Error::INVALID_DISTANCE;
                }
                const auto distanceEntry = lookupChecked<DISTANCE_TABLE_BITS>(
                    reader, codings.distanceTable.data(), Error::INVALID_DISTANCE, error );
                if ( error != Error::NONE ) {
                    return error;
                }
                if ( ( distanceEntry & ENTRY_EXCEPTIONAL ) != 0 ) {
                    return Error::INVALID_DISTANCE;  /* 30/31 */
                }
                const auto distanceExtra = static_cast<std::uint8_t>( distanceEntry )
                                           - codewordLength( distanceEntry );
                if ( reader.bitsLeft() < distanceExtra ) {
                    return Error::TRUNCATED_STREAM;
                }
                const std::size_t distance =
                    ( distanceEntry >> 16U )
                    + ( distanceExtra > 0 ? reader.read( distanceExtra ) : 0 );
                error = copyMatchChecked( output.begin(), out, length, distance );
                if ( error != Error::NONE ) {
                    return error;
                }
            }
            m_totalDecoded += static_cast<std::size_t>( out - output.cursor() );
            output.setCursor( out );
            if ( m_totalDecoded >= m_hardByteLimit ) {
                return Error::EXCEEDED_OUTPUT_LIMIT;
            }
        }
    }

    void
    emitLiteral( DecodedData& data, std::uint8_t byte )
    {
        if ( m_plainMode ) {
            data.plain.back().data.push_back( byte );
        } else {
            data.marked.push_back( byte );
        }
        ++m_totalDecoded;
    }

    /**
     * LZ77 copy. Byte-wise on purpose: overlapping copies (distance <
     * length) replicate, and in 16-bit mode copied symbols may themselves be
     * markers, which must propagate verbatim.
     */
    [[nodiscard]] Error
    emitMatch( DecodedData& data, std::size_t length, std::size_t distance )
    {
        if ( m_plainMode ) {
            auto& out = data.plain.back().data;
            const auto start = out.size();
            if ( distance > start + m_windowSize ) {
                return Error::EXCEEDED_WINDOW;
            }
            /* Seeded-window fast path: a back-reference reaching behind the
             * chunk start takes a contiguous run from the seeded window (the
             * window and the output never interleave within one match — once
             * the copy position enters the output it stays there), then the
             * remainder replicates byte-wise in-buffer, which handles the
             * overlapping (distance < length) case. */
            std::size_t copied = 0;
            if ( distance > start ) {
                const auto fromWindow = std::min( length, distance - start );
                const auto* const source = m_window.data() + m_windowSize - ( distance - start );
                out.insert( out.end(), source, source + fromWindow );
                copied = fromWindow;
            }
            for ( ; copied < length; ++copied ) {
                out.push_back( out[out.size() - distance] );
            }
        } else {
            auto& out = data.marked;
            /* distance <= 32768 and position >= 0 bound the marker offset. */
            for ( std::size_t i = 0; i < length; ++i ) {
                const auto position = out.size();
                const auto symbol = distance <= position
                                    ? out[position - distance]
                                    : static_cast<std::uint16_t>(
                                        MARKER_BASE + ( WINDOW_SIZE - ( distance - position ) ) );
                out.push_back( symbol );
            }
        }
        m_totalDecoded += length;
        return Error::NONE;
    }

    /**
     * The paper's §3.3 fallback, checked at block granularity: once the
     * trailing WINDOW_SIZE outputs contain no marker, materialize them as a
     * real window and continue with plain 8-bit decoding — halving memory
     * traffic and skipping stage two for the rest of the chunk. The check
     * is a backward scan that stops at the first marker: on marker-dense
     * output a few symbols, at most one window per block otherwise — instead
     * of tracking the last marker on every copy.
     */
    void
    maybeFallBackToPlain( DecodedData& data )
    {
        if ( m_plainMode ) {
            return;
        }
        const auto size = data.marked.size();
        if ( size < WINDOW_SIZE ) {
            return;
        }
        const auto* const trailing = data.marked.data() + size - WINDOW_SIZE;
        for ( auto i = WINDOW_SIZE; i > 0; ) {
            if ( trailing[--i] >= MARKER_BASE ) {
                return;  /* a marker is still inside the trailing window */
            }
        }
        m_windowSize = WINDOW_SIZE;
        for ( std::size_t i = 0; i < WINDOW_SIZE; ++i ) {
            m_window[i] = static_cast<std::uint8_t>( data.marked[size - WINDOW_SIZE + i] );
        }
        data.plain.emplace_back();
        m_plainMode = true;
    }

    DynamicHuffmanCodings m_codings;  /* reused across Dynamic blocks */

    std::array<std::uint8_t, WINDOW_SIZE> m_window{};
    std::size_t m_windowSize{ 0 };
    bool m_plainMode{ false };
    bool m_startAtStoredData{ false };
    bool m_referenceDecoding{ globalReferenceHuffmanDecoding().load( std::memory_order_relaxed ) };
    std::size_t m_totalDecoded{ 0 };
    std::size_t m_hardByteLimit{ std::numeric_limits<std::size_t>::max() };
};

}  // namespace rapidgzip::deflate
