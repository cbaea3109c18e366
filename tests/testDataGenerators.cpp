/**
 * workloads layer: generators are deterministic, exactly sized, and have the
 * byte-range / compressibility properties the figures and the pugz baseline
 * depend on.
 */

#include <algorithm>
#include <cstdint>

#include "gzip/ZlibCompressor.hpp"
#include "workloads/DataGenerators.hpp"

#include "TestHelpers.hpp"

using namespace rapidgzip;

namespace {

bool
allInPugzRange( const std::vector<std::uint8_t>& data )
{
    return std::all_of( data.begin(), data.end(),
                        [] ( std::uint8_t byte ) { return byte >= 9 && byte <= 126; } );
}

double
compressionRatio( const std::vector<std::uint8_t>& data )
{
    const auto compressed = compressGzipLike( { data.data(), data.size() }, 6 );
    return static_cast<double>( data.size() ) / static_cast<double>( compressed.size() );
}

}  // namespace

int
main()
{
    constexpr std::size_t SIZE = 2 * MiB + 777;

    /* Exact sizing and determinism across calls. */
    for ( const auto& generate : { workloads::randomData, workloads::base64Data,
                                   workloads::fastqData, workloads::silesiaLikeData,
                                   workloads::logLinesData } ) {
        const auto a = generate( SIZE, 0xABCDEF );
        const auto b = generate( SIZE, 0xABCDEF );
        const auto c = generate( SIZE, 0x123456 );
        REQUIRE( a.size() == SIZE );
        REQUIRE( a == b );
        REQUIRE( a != c );
    }
    REQUIRE( workloads::randomData( 0, 1 ).empty() );
    REQUIRE( workloads::randomData( 13, 1 ).size() == 13 );  /* non-word-aligned tail */

    /* base64 and fastq stay in pugz's supported ASCII range; silesia-like
     * and random data must leave it (that is what makes pugz fail Fig. 10). */
    REQUIRE( allInPugzRange( workloads::base64Data( SIZE, 1 ) ) );
    REQUIRE( allInPugzRange( workloads::fastqData( SIZE, 2 ) ) );
    REQUIRE( !allInPugzRange( workloads::silesiaLikeData( SIZE, 3 ) ) );
    REQUIRE( !allInPugzRange( workloads::randomData( SIZE, 4 ) ) );

    /* The first silesia-like chunk already contains unsupported bytes so the
     * pugz baseline fails fast like in the paper. */
    {
        const auto data = workloads::silesiaLikeData( SIZE, 0xF1A );
        const std::vector<std::uint8_t> head( data.begin(), data.begin() + 64 * KiB );
        REQUIRE( !allInPugzRange( head ) );
    }

    /* base64 lines are 76 characters + newline. */
    {
        const auto data = workloads::base64Data( 1000, 7 );
        REQUIRE( data[76] == '\n' );
        REQUIRE( data[2 * 77 - 1] == '\n' );
        REQUIRE( std::count( data.begin(), data.begin() + 76, '\n' ) == 0 );
    }

    /* fastq structure: records start with '@'. */
    {
        const auto data = workloads::fastqData( 100 * KiB, 9 );
        REQUIRE( data[0] == '@' );
        REQUIRE( std::count( data.begin(), data.end(), '@' ) > 100 );
    }

    /* Compressibility ordering: random ~1x, base64 modest, fastq/silesia higher. */
    REQUIRE( compressionRatio( workloads::randomData( SIZE, 11 ) ) < 1.01 );
    REQUIRE( compressionRatio( workloads::base64Data( SIZE, 12 ) ) > 1.2 );
    REQUIRE( compressionRatio( workloads::fastqData( SIZE, 13 ) ) > 1.5 );
    REQUIRE( compressionRatio( workloads::silesiaLikeData( SIZE, 14 ) ) > 1.5 );

    return rapidgzip::test::finish( "testDataGenerators" );
}
