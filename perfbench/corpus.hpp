#pragma once

/* Seeded input corpora for the end-to-end benchmark. Deliberately independent
 * of the library's own generators so that a change under src/ can never change
 * what the benchmark measures: the same (corpus, size, seed) always yields the
 * same bytes. */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/** splitmix64: tiny, fast, and good enough for workload generation. */
class Rng
{
public:
    explicit Rng( std::uint64_t seed ) noexcept : m_state( seed ) {}

    std::uint64_t
    operator()() noexcept
    {
        auto z = ( m_state += 0x9E3779B97F4A7C15ULL );
        z = ( z ^ ( z >> 30U ) ) * 0xBF58476D1CE4E5B9ULL;
        z = ( z ^ ( z >> 27U ) ) * 0x94D049BB133111EBULL;
        return z ^ ( z >> 31U );
    }

    /** Uniform in [0, bound). */
    std::uint64_t
    below( std::uint64_t bound ) noexcept
    {
        return static_cast<std::uint64_t>(
            ( static_cast<unsigned __int128>( ( *this )() ) * bound ) >> 64U );
    }

    /** Uniform in [0, 1). */
    double
    unit() noexcept
    {
        return static_cast<double>( ( *this )() >> 11U ) * ( 1.0 / 9007199254740992.0 );
    }

private:
    std::uint64_t m_state;
};

/** Random bytes, base64-encoded, 76-character lines: the paper's headline
 * data (Fig. 9), nearly all Huffman-coded literals. */
inline std::vector<std::uint8_t>
base64Corpus( std::size_t size, std::uint64_t seed )
{
    static constexpr char ALPHABET[] =
        "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    std::vector<std::uint8_t> out( size );
    Rng rng( seed );
    std::uint64_t bits = 0;
    unsigned available = 0;
    std::size_t column = 0;
    for ( auto& byte : out ) {
        if ( column == 76 ) {
            byte = '\n';
            column = 0;
            continue;
        }
        if ( available < 6 ) {
            bits = rng();
            available = 64;
        }
        byte = static_cast<std::uint8_t>( ALPHABET[bits & 63U] );
        bits >>= 6U;
        available -= 6;
        ++column;
    }
    return out;
}

/** Silesia-like mixture in 64 KiB segments: word text, binary records, and
 * near-repeats of recent output (long matches that reach back into the
 * previous 32 KiB window, so speculative chunks carry many 16-bit markers),
 * plus one incompressible segment in sixteen. The segment kinds follow a fixed
 * cycle and only their contents are random, so every seed compresses to
 * nearly the same size and the chunk geometry does not depend on the seed. */
inline std::vector<std::uint8_t>
silesiaCorpus( std::size_t size, std::uint64_t seed )
{
    Rng rng( seed );
    std::vector<std::string> words;
    for ( int i = 0; i < 512; ++i ) {
        std::string word;
        const auto length = 2 + rng.below( 9 );
        for ( std::uint64_t j = 0; j < length; ++j ) {
            word.push_back( static_cast<char>( 'a' + rng.below( 26 ) ) );
        }
        words.push_back( word );
    }

    constexpr std::size_t SEGMENT = 64 * 1024;
    constexpr std::size_t WINDOW = 32 * 1024;
    std::vector<std::uint8_t> out;
    out.reserve( size + SEGMENT );
    static constexpr unsigned CYCLE[16] = { 0, 9, 6, 10, 1, 11, 7, 12, 2, 15, 3, 13, 8, 14, 4, 5 };
    for ( std::size_t segment = 0; out.size() < size; ++segment ) {
        const auto segmentEnd = out.size() + SEGMENT;
        const auto mode = CYCLE[segment % 16];
        if ( mode < 6 ) {
            /* Zipf-ish word text. */
            while ( out.size() < segmentEnd ) {
                const auto rank = static_cast<std::size_t>( words.size() * rng.unit() * rng.unit() );
                const auto& word = words[std::min( rank, words.size() - 1 )];
                out.insert( out.end(), word.begin(), word.end() );
                out.push_back( rng.below( 14 ) == 0 ? '\n' : ' ' );
            }
        } else if ( mode < 9 ) {
            /* Little-endian records of small integers. */
            while ( out.size() < segmentEnd ) {
                const auto value = static_cast<std::uint32_t>( rng.below( 4096 ) );
                const std::uint8_t record[8] = {
                    static_cast<std::uint8_t>( value & 0xFFU ),
                    static_cast<std::uint8_t>( value >> 8U ),
                    0, 0, 0x01, 0x80,
                    static_cast<std::uint8_t>( rng.below( 4 ) ),
                    static_cast<std::uint8_t>( rng.below( 256 ) ),
                };
                out.insert( out.end(), record, record + sizeof( record ) );
            }
        } else if ( mode < 15 ) {
            /* Long near-repeats from the last window. */
            while ( out.size() < segmentEnd ) {
                const auto reach = std::min( out.size(), WINDOW );
                const auto length = std::min<std::size_t>( 64 + rng.below( 448 ), reach );
                const auto start = out.size() - reach + rng.below( reach - length + 1 );
                const auto previous = out.size();
                out.resize( previous + length );
                std::memmove( out.data() + previous, out.data() + start, length );
                out.back() = static_cast<std::uint8_t>( rng.below( 256 ) );
            }
        } else {
            while ( out.size() < segmentEnd ) {
                out.push_back( static_cast<std::uint8_t>( rng() ) );
            }
        }
    }
    out.resize( size );
    return out;
}

/** Server-log-like lines: an increasing timestamp, a level, a worker, a
 * request line from a small set of endpoints, a few numeric fields and a
 * client name. Text of this kind compresses at about 6.5:1 with zlib -6,
 * above the 4:1 the speculative decoder presizes its output for. */
inline std::vector<std::uint8_t>
logsCorpus( std::size_t size, std::uint64_t seed )
{
    static constexpr const char* LEVELS[] = { "INFO ", "INFO ", "INFO ", "INFO ", "DEBUG", "DEBUG", "WARN ", "ERROR" };
    static constexpr const char* METHODS[] = { "GET", "GET", "GET", "POST", "PUT", "DELETE", "GET", "HEAD" };
    static constexpr const char* STATUS[] = { "200", "200", "200", "200", "200", "304", "404", "500" };
    static constexpr const char* AGENTS[] = { "curl/8.4.0", "python-requests/2.31.0",
                                              "Mozilla/5.0 (X11; Linux x86_64; rv:118.0) Gecko/20100101 Firefox/118.0",
                                              "Go-http-client/1.1" };
    Rng rng( seed );
    std::vector<std::string> endpoints;
    for ( int i = 0; i < 32; ++i ) {
        std::string endpoint = "/api/v" + std::to_string( 1 + rng.below( 3 ) ) + "/";
        const auto length = 4 + rng.below( 9 );
        for ( std::uint64_t j = 0; j < length; ++j ) {
            endpoint.push_back( static_cast<char>( 'a' + rng.below( 26 ) ) );
        }
        endpoints.push_back( endpoint );
    }

    std::vector<std::uint8_t> out;
    out.reserve( size + 256 );
    std::uint64_t milliseconds = 0;
    char line[256];
    while ( out.size() < size ) {
        milliseconds += rng.below( 40 );
        const auto seconds = milliseconds / 1000;
        const auto length = std::snprintf(
            line, sizeof( line ), "2023-10-17 %02u:%02u:%02u.%03u %s worker-%02u %s %s/%u %s %u %ums \"%s\"\n",
            static_cast<unsigned>( seconds / 3600 % 24 ), static_cast<unsigned>( seconds / 60 % 60 ),
            static_cast<unsigned>( seconds % 60 ), static_cast<unsigned>( milliseconds % 1000 ),
            LEVELS[rng.below( 8 )], static_cast<unsigned>( rng.below( 16 ) ), METHODS[rng.below( 8 )],
            endpoints[rng.below( endpoints.size() )].c_str(), static_cast<unsigned>( rng.below( 10000 ) ),
            STATUS[rng.below( 8 )], static_cast<unsigned>( rng.below( 4096 ) ),
            static_cast<unsigned>( rng.below( 100 ) ), AGENTS[rng.below( 4 )] );
        out.insert( out.end(), line, line + length );
    }
    out.resize( size );
    return out;
}

inline std::vector<std::uint8_t>
makeCorpus( const std::string& name, std::size_t size, std::uint64_t seed )
{
    if ( name == "base64" ) {
        return base64Corpus( size, seed );
    }
    if ( name == "silesia" ) {
        return silesiaCorpus( size, seed );
    }
    if ( name == "logs" ) {
        return logsCorpus( size, seed );
    }
    throw std::invalid_argument( "unknown corpus: " + name );
}

}  // namespace perfbench
