#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "../common/Util.hpp"

namespace rapidgzip::workloads {

/**
 * Deterministic synthetic workloads for the paper-figure reproductions.
 * All generators are pure functions of (size, seed) so every benchmark and
 * test sees bit-identical data across runs and machines.
 */

/** Incompressible data spanning the full byte range. */
[[nodiscard]] inline std::vector<std::uint8_t>
randomData( std::size_t size, std::uint64_t seed )
{
    std::vector<std::uint8_t> result( size );
    Xorshift64 random( seed );
    std::size_t i = 0;
    for ( ; i + sizeof( std::uint64_t ) <= size; i += sizeof( std::uint64_t ) ) {
        const auto value = random();
        std::memcpy( result.data() + i, &value, sizeof( value ) );
    }
    for ( auto value = random(); i < size; ++i, value >>= 8U ) {
        result[i] = static_cast<std::uint8_t>( value & 0xFFU );
    }
    return result;
}

/**
 * Base64-encoded random data with 76-character lines, mimicking the paper's
 * Fig. 9 workload: pure printable ASCII, compresses to mostly Huffman-coded
 * literals whose backward pointers die out quickly.
 */
[[nodiscard]] inline std::vector<std::uint8_t>
base64Data( std::size_t size, std::uint64_t seed )
{
    static constexpr char ALPHABET[] =
        "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    constexpr std::size_t LINE_LENGTH = 76;

    std::vector<std::uint8_t> result( size );
    Xorshift64 random( seed );
    std::size_t column = 0;
    for ( std::size_t i = 0; i < size; ++i ) {
        if ( column == LINE_LENGTH ) {
            result[i] = '\n';
            column = 0;
        } else {
            result[i] = static_cast<std::uint8_t>( ALPHABET[random.below( 64 )] );
            ++column;
        }
    }
    return result;
}

/**
 * Synthetic FASTQ records (4 lines: @id, bases, +, qualities), the Fig. 11
 * workload: ASCII-only, highly repetitive headers, low-entropy base lines.
 */
[[nodiscard]] inline std::vector<std::uint8_t>
fastqData( std::size_t size, std::uint64_t seed )
{
    static constexpr char BASES[] = "ACGT";

    std::vector<std::uint8_t> result;
    result.reserve( size + 512 );
    Xorshift64 random( seed );

    std::uint64_t readId = 0;
    while ( result.size() < size ) {
        char header[96];
        const int headerLength = std::snprintf(
            header, sizeof( header ), "@SIM:1:FCX:1:15:%llu:%llu 1:N:0:2\n",
            static_cast<unsigned long long>( 1000 + readId % 9000 ),
            static_cast<unsigned long long>( readId ) );
        result.insert( result.end(), header, header + headerLength );
        ++readId;

        const std::size_t readLength = 90 + random.below( 21 );
        for ( std::size_t i = 0; i < readLength; ++i ) {
            result.push_back( static_cast<std::uint8_t>( BASES[random.below( 4 )] ) );
        }
        result.push_back( '\n' );
        result.push_back( '+' );
        result.push_back( '\n' );
        for ( std::size_t i = 0; i < readLength; ++i ) {
            /* Phred+33 qualities clustered at the high end like real reads. */
            result.push_back( static_cast<std::uint8_t>( 'I' - random.below( 9 ) ) );
        }
        result.push_back( '\n' );
    }
    result.resize( size );
    return result;
}

/**
 * Long byte runs with geometrically distributed lengths — the RLE-heavy
 * extreme every entropy coder special-cases (bzip2's RLE1 stage, LZ4's
 * overlapping offset-1 matches, Deflate's length-258 chains). Exercises
 * exactly the code paths a uniform random corpus never touches: maximal
 * match lengths, overlap copies, and bzip2's run-length escape at 251+
 * repeats.
 */
[[nodiscard]] inline std::vector<std::uint8_t>
runsData( std::size_t size, std::uint64_t seed )
{
    std::vector<std::uint8_t> result;
    result.reserve( size );
    Xorshift64 random( seed );
    while ( result.size() < size ) {
        const auto value = static_cast<std::uint8_t>( random.below( 8 ) * 31 );
        /* Geometric-ish: mostly short runs, occasionally thousands long. */
        auto length = 1 + random.below( 16 );
        if ( random.below( 8 ) == 0 ) {
            length = 64 + random.below( 4096 );
        }
        length = std::min( length, size - result.size() );
        result.insert( result.end(), length, value );
    }
    return result;
}

/**
 * Boundary-heavy LZ windows: repeated phrases whose lengths hover around
 * the writers' block/frame boundaries (64 KiB, 256 KiB) so back-references
 * constantly WANT to cross chunk borders. For formats cut into independent
 * blocks this is the adversarial input — the compressor must cut matches
 * at each boundary and the reader must not let state leak across — and for
 * the gzip two-stage decoder it maximizes surviving markers. Phrase
 * distances are drawn near 1, 2^15 (the Deflate window), and 2^16 (the LZ4
 * offset limit) to sit on every off-by-one edge.
 */
[[nodiscard]] inline std::vector<std::uint8_t>
lzBoundaryData( std::size_t size, std::uint64_t seed )
{
    std::vector<std::uint8_t> result;
    result.reserve( size );
    Xorshift64 random( seed );

    static constexpr std::size_t EDGES[] = { 1, 2, 7, 8,
                                             32 * KiB - 1, 32 * KiB, 32 * KiB + 1,
                                             64 * KiB - 1, 64 * KiB };
    while ( result.size() < size ) {
        if ( ( result.size() < 64 ) || ( random.below( 4 ) == 0 ) ) {
            /* Fresh literal material. */
            const auto length = std::min<std::size_t>( 16 + random.below( 64 ),
                                                       size - result.size() );
            for ( std::size_t i = 0; i < length; ++i ) {
                result.push_back( static_cast<std::uint8_t>( random.below( 256 ) ) );
            }
            continue;
        }
        /* Copy from an edge-case distance back; lengths may exceed the
         * distance, producing overlapping (RLE-like) matches. */
        auto distance = EDGES[random.below( sizeof( EDGES ) / sizeof( EDGES[0] ) )];
        distance = std::min( distance, result.size() );
        const auto length = std::min<std::size_t>( 4 + random.below( 512 ),
                                                   size - result.size() );
        for ( std::size_t i = 0; i < length; ++i ) {
            result.push_back( result[result.size() - distance] );
        }
    }
    return result;
}

/**
 * Mixed text/binary corpus standing in for Silesia (Fig. 10; see DESIGN.md):
 * alternating 64 KiB segments of English-like text, binary records with
 * non-ASCII bytes, LZ-friendly near-repeats of earlier content, and random
 * data. Backward pointers stay alive across large distances, and the binary
 * segments put it outside pugz's supported byte range — both properties the
 * paper's Silesia results hinge on. The first segment is always binary so
 * byte-range-restricted decompressors fail fast, as pugz does in Fig. 10.
 */
[[nodiscard]] inline std::vector<std::uint8_t>
silesiaLikeData( std::size_t size, std::uint64_t seed )
{
    static constexpr const char* WORDS[] = {
        "the", "of", "compression", "corpus", "model", "data", "window",
        "pointer", "block", "stream", "entropy", "symbol", "archive",
        "medical", "image", "database", "protein", "sequence", "xml",
    };
    constexpr std::size_t SEGMENT = 64 * KiB;

    std::vector<std::uint8_t> result;
    result.reserve( size );
    Xorshift64 random( seed );

    std::size_t segmentIndex = 0;
    while ( result.size() < size ) {
        const auto segmentEnd = std::min( result.size() + SEGMENT, size );
        const auto mode = segmentIndex == 0 ? 1U : static_cast<unsigned>( random.below( 4 ) );
        switch ( mode ) {
        case 0:  /* English-like text */
            while ( result.size() < segmentEnd ) {
                const char* word = WORDS[random.below( sizeof( WORDS ) / sizeof( WORDS[0] ) )];
                result.insert( result.end(), word, word + std::strlen( word ) );
                result.push_back( random.below( 12 ) == 0 ? '\n' : ' ' );
            }
            break;
        case 1:  /* binary records: small integers => many 0x00/0xFF/high bytes */
            while ( result.size() < segmentEnd ) {
                const auto value = static_cast<std::uint32_t>(
                    random.below( 4096 ) * ( random.below( 2 ) == 0 ? 1U : 0x00FFFFFFU ) );
                const std::uint8_t record[8] = {
                    static_cast<std::uint8_t>( value & 0xFFU ),
                    static_cast<std::uint8_t>( ( value >> 8U ) & 0xFFU ),
                    static_cast<std::uint8_t>( ( value >> 16U ) & 0xFFU ),
                    static_cast<std::uint8_t>( ( value >> 24U ) & 0xFFU ),
                    0x00U, 0xC3U, 0x80U,
                    static_cast<std::uint8_t>( random.below( 256 ) ),
                };
                result.insert( result.end(), record, record + sizeof( record ) );
            }
            break;
        case 2:  /* near-repeat of earlier content => long-range backward pointers */
            if ( result.empty() ) {
                result.push_back( 0 );
            }
            while ( result.size() < segmentEnd ) {
                const auto copyLength = std::min<std::size_t>( 256 + random.below( 1024 ),
                                                               result.size() );
                const auto copyStart = random.below( result.size() - copyLength + 1 );
                const auto previousSize = result.size();
                result.resize( previousSize + copyLength );
                std::memcpy( result.data() + previousSize, result.data() + copyStart, copyLength );
                if ( random.below( 4 ) == 0 ) {
                    result.back() = static_cast<std::uint8_t>( random.below( 256 ) );
                }
            }
            break;
        default:  /* incompressible stretch */
            while ( result.size() < segmentEnd ) {
                result.push_back( static_cast<std::uint8_t>( random.below( 256 ) ) );
            }
            break;
        }
        ++segmentIndex;
    }
    result.resize( size );
    return result;
}

/**
 * Server-log lines from a handful of templates, with a counter, a
 * millisecond clock and a few small fields as the only fresh bytes. Each
 * template is copied from its last use, so a windowless decode from mid
 * stream keeps copying the pre-chunk history forward: most of its output
 * stays markers and it never falls back to 8-bit decoding.
 */
[[nodiscard]] inline std::vector<std::uint8_t>
logLinesData( std::size_t size, std::uint64_t seed )
{
    static constexpr const char* TEMPLATES[] = {
        "INFO  worker-%02u GET /api/v1/objects/%llu HTTP/1.1 200 %u bytes in %ums \"curl/8.4.0\"\n",
        "DEBUG worker-%02u cache lookup for key session:%llu returned %u entries after %ums\n",
        "INFO  worker-%02u POST /api/v2/upload?request=%llu HTTP/1.1 201 %u bytes in %ums \"python-requests/2.31.0\"\n",
        "WARN  worker-%02u slow query on shard %llu: %u rows scanned in %ums\n",
    };
    std::vector<std::uint8_t> result;
    result.reserve( size + 256 );
    Xorshift64 random( seed );
    std::uint64_t milliseconds = 0;
    for ( std::uint64_t counter = 0; result.size() < size; ++counter ) {
        milliseconds += random.below( 40 );
        char line[256];
        int length = std::snprintf( line, sizeof( line ), "2023-10-17 %02u:%02u:%02u.%03u #%llu ",
                                    static_cast<unsigned>( milliseconds / 3600000 % 24 ),
                                    static_cast<unsigned>( milliseconds / 60000 % 60 ),
                                    static_cast<unsigned>( milliseconds / 1000 % 60 ),
                                    static_cast<unsigned>( milliseconds % 1000 ),
                                    static_cast<unsigned long long>( counter ) );
        length += std::snprintf( line + length, sizeof( line ) - static_cast<std::size_t>( length ),
                                 TEMPLATES[random.below( 4 )],
                                 static_cast<unsigned>( random.below( 16 ) ),
                                 static_cast<unsigned long long>( counter * 7 % 100000 ),
                                 static_cast<unsigned>( random.below( 4096 ) ),
                                 static_cast<unsigned>( random.below( 100 ) ) );
        result.insert( result.end(), line, line + length );
    }
    result.resize( size );
    return result;
}

}  // namespace rapidgzip::workloads
