/* Open-loop HTTP load generator for rapidgzip-serve.
 *
 * Arrivals are seeded Poisson at a fixed rate; each request is due at its
 * arrival time whether or not earlier ones have finished, so a stall in the
 * server shows up as latency of everything queued behind it (no coordinated
 * omission). Requests go out over a fixed set of pipelined keep-alive
 * connections; latency is measured from the due time to the last body byte,
 * and every body is byte-compared with the regenerated corpus.
 *
 *   load --port P --archives name:corpus:size:seed[,...] --phase openloop
 *        --rate R --seconds D --conns C --seed S
 *   load ... --phase ladder --rates r1,r2,... --rung-seconds D --limit-ms L
 *   load ... --phase full --rounds N --paths file[,...]
 */

#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "corpus.hpp"
#include "vendor.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double
nowSeconds()
{
    return std::chrono::duration<double>( Clock::now().time_since_epoch() ).count();
}

struct Archive
{
    std::string name;
    std::vector<std::uint8_t> data;
};

struct Request
{
    std::size_t archive{ 0 };
    std::size_t offset{ 0 };
    std::size_t length{ 0 };
    double due{ 0 };
    double sent{ -1 };
    double firstByte{ -1 };
    double done{ -1 };
    bool ok{ false };
};

class Connection
{
public:
    explicit Connection( std::uint16_t port )
    {
        m_fd = ::socket( AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0 );
        if ( m_fd < 0 ) {
            throw std::runtime_error( "socket failed" );
        }
        const int one = 1;
        ::setsockopt( m_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof( one ) );
        sockaddr_in address{};
        address.sin_family = AF_INET;
        address.sin_port = htons( port );
        address.sin_addr.s_addr = htonl( INADDR_LOOPBACK );
        if ( ( ::connect( m_fd, reinterpret_cast<sockaddr*>( &address ), sizeof( address ) ) != 0 )
             && ( errno != EINPROGRESS ) ) {
            ::close( m_fd );
            throw std::runtime_error( "connect failed" );
        }
    }

    Connection( const Connection& ) = delete;
    Connection& operator=( const Connection& ) = delete;

    ~Connection()
    {
        if ( m_fd >= 0 ) {
            ::close( m_fd );
        }
    }

    int fd() const { return m_fd; }

    std::deque<std::size_t> outstanding;
    std::string sendBuffer;
    std::vector<std::size_t> sendQueue;  /* requests whose bytes are (partly) in sendBuffer */
    std::vector<std::size_t> sendEnds;   /* sendBuffer offset where each queued request ends */
    std::string header;
    bool inBody{ false };
    int status{ 0 };
    std::size_t bodyLeft{ 0 };
    std::size_t bodyDone{ 0 };
    bool dead{ false };

private:
    int m_fd{ -1 };
};

std::size_t
parseContentLength( const std::string& header )
{
    std::string lower( header );
    std::transform( lower.begin(), lower.end(), lower.begin(), [] ( unsigned char c ) { return std::tolower( c ); } );
    const auto position = lower.find( "\r\ncontent-length:" );
    if ( position == std::string::npos ) {
        return 0;
    }
    return std::stoull( lower.substr( position + 17 ) );
}

class OpenLoop
{
public:
    OpenLoop( std::uint16_t port, std::vector<Archive>& archives, std::size_t connectionCount ) :
        m_port( port ),
        m_archives( archives ),
        m_connectionCount( std::max<std::size_t>( 1, connectionCount ) )
    {}

    /** Issue @p requests at their due times; wait at most @p drainSeconds
     * after the last one is due. Unfinished requests keep done < 0. */
    void
    run( std::vector<Request>& requests, double drainSeconds )
    {
        while ( m_connections.size() < m_connectionCount ) {
            m_connections.push_back( std::make_unique<Connection>( m_port ) );
        }
        m_requests = &requests;
        std::size_t next = 0;
        std::size_t finished = 0;
        const auto lastDue = requests.empty() ? nowSeconds() : requests.back().due;
        std::vector<pollfd> fds;
        while ( finished < requests.size() ) {
            auto now = nowSeconds();
            while ( ( next < requests.size() ) && ( requests[next].due <= now ) ) {
                dispatch( next++ );
            }
            if ( now > lastDue + drainSeconds ) {
                break;
            }
            fds.clear();
            for ( const auto& connection : m_connections ) {
                short events = POLLIN;
                if ( !connection->sendBuffer.empty() ) {
                    events |= POLLOUT;
                }
                fds.push_back( { connection->fd(), events, 0 } );
            }
            const auto deadline = next < requests.size() ? requests[next].due : lastDue + drainSeconds;
            const auto wait = std::max( 0.0, deadline - nowSeconds() );
            timespec timeout{ static_cast<time_t>( wait ), static_cast<long>( std::fmod( wait, 1.0 ) * 1e9 ) };
            if ( ::ppoll( fds.data(), fds.size(), &timeout, nullptr ) < 0 ) {
                if ( errno == EINTR ) {
                    continue;
                }
                throw std::runtime_error( "ppoll failed" );
            }
            for ( std::size_t i = 0; i < fds.size(); ++i ) {
                auto& connection = *m_connections[i];
                if ( ( fds[i].revents & POLLOUT ) != 0 ) {
                    flush( connection );
                }
                if ( ( fds[i].revents & ( POLLIN | POLLHUP | POLLERR ) ) != 0 ) {
                    finished += receive( connection );
                }
            }
            for ( auto& connection : m_connections ) {
                if ( connection->dead ) {
                    /* Requests still queued on a dead connection have failed. */
                    for ( const auto index : connection->outstanding ) {
                        ( *m_requests )[index].ok = false;
                        ( *m_requests )[index].done = nowSeconds();
                        ++finished;
                    }
                    connection = std::make_unique<Connection>( m_port );
                }
            }
        }
        /* Whatever is still outstanding timed out; the connections carry
         * stale pipelined responses, so start the next phase on fresh ones. */
        bool stale = false;
        for ( auto& connection : m_connections ) {
            stale = stale || !connection->outstanding.empty();
        }
        if ( stale ) {
            m_connections.clear();
        }
    }

private:
    void
    dispatch( std::size_t index )
    {
        auto& request = ( *m_requests )[index];
        auto* best = m_connections[m_roundRobin % m_connections.size()].get();
        for ( std::size_t i = 0; i < m_connections.size(); ++i ) {
            auto* candidate = m_connections[( m_roundRobin + i ) % m_connections.size()].get();
            if ( candidate->outstanding.size() < best->outstanding.size() ) {
                best = candidate;
            }
        }
        ++m_roundRobin;
        std::ostringstream text;
        text << "GET /" << m_archives[request.archive].name << " HTTP/1.1\r\nHost: 127.0.0.1\r\nRange: bytes="
             << request.offset << '-' << request.offset + request.length - 1 << "\r\n\r\n";
        best->sendBuffer += text.str();
        best->sendQueue.push_back( index );
        best->sendEnds.push_back( best->sendBuffer.size() );
        best->outstanding.push_back( index );
        flush( *best );
    }

    void
    flush( Connection& connection )
    {
        while ( !connection.sendBuffer.empty() ) {
            const auto written = ::send( connection.fd(), connection.sendBuffer.data(),
                                         connection.sendBuffer.size(), MSG_NOSIGNAL );
            if ( written < 0 ) {
                if ( ( errno != EAGAIN ) && ( errno != EWOULDBLOCK ) && ( errno != ENOTCONN ) ) {
                    connection.dead = true;
                }
                return;
            }
            const auto now = nowSeconds();
            connection.sendBuffer.erase( 0, static_cast<std::size_t>( written ) );
            std::size_t completed = 0;
            for ( auto& end : connection.sendEnds ) {
                if ( end <= static_cast<std::size_t>( written ) ) {
                    ( *m_requests )[connection.sendQueue[completed]].sent = now;
                    ++completed;
                    end = 0;
                } else {
                    end -= static_cast<std::size_t>( written );
                }
            }
            connection.sendQueue.erase( connection.sendQueue.begin(),
                                        connection.sendQueue.begin() + static_cast<std::ptrdiff_t>( completed ) );
            connection.sendEnds.erase( connection.sendEnds.begin(),
                                       connection.sendEnds.begin() + static_cast<std::ptrdiff_t>( completed ) );
        }
    }

    /** Returns the number of requests completed. */
    std::size_t
    receive( Connection& connection )
    {
        char buffer[256 * 1024];
        std::size_t completed = 0;
        while ( true ) {
            const auto got = ::recv( connection.fd(), buffer, sizeof( buffer ), MSG_DONTWAIT );
            if ( got == 0 ) {
                connection.dead = true;
                return completed;
            }
            if ( got < 0 ) {
                if ( ( errno != EAGAIN ) && ( errno != EWOULDBLOCK ) ) {
                    connection.dead = true;
                }
                return completed;
            }
            const auto now = nowSeconds();
            std::size_t position = 0;
            while ( position < static_cast<std::size_t>( got ) ) {
                if ( connection.outstanding.empty() ) {
                    connection.dead = true;  /* unsolicited bytes */
                    return completed;
                }
                auto& request = ( *m_requests )[connection.outstanding.front()];
                if ( request.firstByte < 0 ) {
                    request.firstByte = now;
                }
                if ( !connection.inBody ) {
                    const auto take = std::min<std::size_t>( static_cast<std::size_t>( got ) - position, 16384 );
                    const auto before = connection.header.size();
                    connection.header.append( buffer + position, take );
                    const auto end = connection.header.find( "\r\n\r\n" );
                    if ( end == std::string::npos ) {
                        position += take;
                        continue;
                    }
                    position += end + 4 - before;
                    connection.header.resize( end + 2 );
                    connection.status = std::atoi( connection.header.c_str() + 9 );
                    connection.bodyLeft = parseContentLength( connection.header );
                    connection.bodyDone = 0;
                    connection.inBody = true;
                    request.ok = ( connection.status == 206 ) && ( connection.bodyLeft == request.length );
                }
                const auto take = std::min<std::size_t>( static_cast<std::size_t>( got ) - position,
                                                         connection.bodyLeft );
                if ( request.ok ) {
                    const auto& reference = m_archives[request.archive].data;
                    const auto offset = request.offset + connection.bodyDone;
                    request.ok = ( offset + take <= reference.size() )
                                 && ( std::memcmp( buffer + position, reference.data() + offset, take ) == 0 );
                }
                position += take;
                connection.bodyLeft -= take;
                connection.bodyDone += take;
                if ( connection.bodyLeft == 0 ) {
                    request.done = now;
                    connection.outstanding.pop_front();
                    connection.inBody = false;
                    connection.header.clear();
                    ++completed;
                }
            }
        }
    }

    std::uint16_t m_port;
    std::vector<Archive>& m_archives;
    std::size_t m_connectionCount;
    std::vector<std::unique_ptr<Connection> > m_connections;
    std::vector<Request>* m_requests{ nullptr };
    std::size_t m_roundRobin{ 0 };
};

/** Zipf(1) over ranks via an inverse-CDF table, with rank r scattered to
 * slot (r * 2654435761) mod n so the hot set is not one contiguous prefix:
 * the sampler bench/serve_load.cpp uses. */
class ZipfTable
{
public:
    explicit ZipfTable( std::size_t n )
    {
        double sum = 0;
        for ( std::size_t rank = 1; rank <= n; ++rank ) {
            sum += 1.0 / static_cast<double>( rank );
            m_cdf.push_back( sum );
        }
        for ( auto& value : m_cdf ) {
            value /= sum;
        }
    }

    std::size_t
    operator()( Rng& rng ) const
    {
        const auto rank = std::min<std::size_t>(
            std::lower_bound( m_cdf.begin(), m_cdf.end(), rng.unit() ) - m_cdf.begin(), m_cdf.size() - 1 );
        return ( rank * 2654435761ULL ) % m_cdf.size();
    }

private:
    std::vector<double> m_cdf;
};

/** The access shape of bench/serve_load.cpp: a Zipf-chosen archive, then a
 * Zipf-chosen one of SLOTS evenly spaced offsets in it, RANGE_BYTES long.
 * The popularity geometry is the same for every seed; the seed draws arrivals
 * and picks. */
class RequestPlan
{
public:
    static constexpr std::size_t SLOTS = 512;
    static constexpr std::size_t RANGE_BYTES = 4 * 1024;

    RequestPlan( const std::vector<Archive>& archives, std::uint64_t seed ) :
        m_archives( archives ),
        m_archivePicker( archives.size() ),
        m_slotPicker( SLOTS ),
        m_rng( seed )
    {
        for ( const auto& archive : archives ) {
            if ( archive.data.size() < RANGE_BYTES ) {
                throw std::invalid_argument( "archive " + archive.name + " is smaller than one range" );
            }
        }
    }

    /** Poisson arrivals at @p rate per second for @p seconds from @p start. */
    std::vector<Request>
    schedule( double rate, double seconds, double start )
    {
        std::vector<Request> requests;
        double due = start;
        while ( true ) {
            due += -std::log( 1.0 - m_rng.unit() ) / rate;
            if ( due >= start + seconds ) {
                return requests;
            }
            Request request;
            request.archive = m_archivePicker( m_rng );
            const auto size = m_archives[request.archive].data.size();
            request.offset = std::min( size - RANGE_BYTES, m_slotPicker( m_rng ) * ( size / SLOTS ) );
            request.length = RANGE_BYTES;
            request.due = due;
            requests.push_back( request );
        }
    }

private:
    const std::vector<Archive>& m_archives;
    ZipfTable m_archivePicker;
    ZipfTable m_slotPicker;
    Rng m_rng;
};

std::map<std::string, std::string>
parseArguments( int argc, char** argv )
{
    std::map<std::string, std::string> options;
    for ( int i = 0; i + 1 < argc; i += 2 ) {
        const std::string key = argv[i];
        if ( key.rfind( "--", 0 ) != 0 ) {
            throw std::invalid_argument( "unexpected argument: " + key );
        }
        options[key.substr( 2 )] = argv[i + 1];
    }
    return options;
}

std::vector<std::string>
split( const std::string& text, char separator )
{
    std::vector<std::string> parts;
    std::stringstream stream( text );
    for ( std::string part; std::getline( stream, part, separator ); ) {
        parts.push_back( part );
    }
    return parts;
}

std::string
get( const std::map<std::string, std::string>& options, const std::string& key )
{
    const auto match = options.find( key );
    if ( match == options.end() ) {
        throw std::invalid_argument( "missing --" + key );
    }
    return match->second;
}

void
printMilliseconds( std::ostringstream& out, const char* key, const std::vector<double>& values )
{
    out << '"' << key << "\":[";
    for ( std::size_t i = 0; i < values.size(); ++i ) {
        char text[32];
        std::snprintf( text, sizeof( text ), "%s%.4f", i == 0 ? "" : ",", values[i] * 1e3 );
        out << text;
    }
    out << ']';
}

/** One phase's requests as JSON: per-request latency from due time, time to
 * first byte from due time, and generator lateness (send - due). A failed
 * request has no latency; it is counted in `failed`, and also in
 * `answered_wrong` when it was answered (wrong status, length or bytes, or
 * a dropped connection) rather than timed out. */
std::string
summarize( const std::vector<Request>& requests, double offered )
{
    std::vector<double> latency;
    std::vector<double> ttfb;
    std::vector<double> late;
    std::size_t failed = 0;
    std::size_t wrong = 0;
    std::size_t bytes = 0;
    for ( const auto& request : requests ) {
        if ( request.sent >= 0 ) {
            late.push_back( request.sent - request.due );
        }
        if ( !request.ok || ( request.done < 0 ) ) {
            ++failed;
            wrong += request.done >= 0 ? 1 : 0;
            continue;
        }
        latency.push_back( request.done - request.due );
        ttfb.push_back( request.firstByte - request.due );
        bytes += request.length;
    }
    std::ostringstream out;
    out << "{\"offered_rps\":" << offered << ",\"attempted\":" << requests.size() << ",\"failed\":" << failed
        << ",\"answered_wrong\":" << wrong << ",\"bytes\":" << bytes << ',';
    printMilliseconds( out, "latency_ms", latency );
    out << ',';
    printMilliseconds( out, "ttfb_ms", ttfb );
    out << ',';
    printMilliseconds( out, "late_ms", late );
    out << '}';
    return out.str();
}

/** One whole-archive GET on a fresh blocking connection. */
std::string
fullGet( std::uint16_t port, const Archive& archive )
{
    Connection connection( port );
    pollfd writable{ connection.fd(), POLLOUT, 0 };
    ::poll( &writable, 1, 5000 );
    const auto start = nowSeconds();
    const auto request = "GET /" + archive.name + " HTTP/1.1\r\nHost: 127.0.0.1\r\nRange: bytes=0-\r\n\r\n";
    if ( ::send( connection.fd(), request.data(), request.size(), MSG_NOSIGNAL )
         != static_cast<ssize_t>( request.size() ) ) {
        throw std::runtime_error( "send failed" );
    }
    std::vector<char> buffer( 1U << 20U );
    std::string header;
    std::size_t bodyDone = 0;
    std::size_t bodyLength = 0;
    bool inBody = false;
    bool ok = true;
    double firstByte = -1;
    while ( !inBody || ( bodyDone < bodyLength ) ) {
        pollfd readable{ connection.fd(), POLLIN, 0 };
        if ( ::poll( &readable, 1, 60000 ) <= 0 ) {
            ok = false;
            break;
        }
        const auto got = ::recv( connection.fd(), buffer.data(), buffer.size(), 0 );
        if ( got <= 0 ) {
            ok = false;
            break;
        }
        std::size_t position = 0;
        if ( !inBody ) {
            const auto before = header.size();
            header.append( buffer.data(), static_cast<std::size_t>( got ) );
            const auto end = header.find( "\r\n\r\n" );
            if ( end == std::string::npos ) {
                continue;
            }
            position = end + 4 - before;
            header.resize( end + 2 );
            bodyLength = parseContentLength( header );
            ok = ( std::atoi( header.c_str() + 9 ) == 206 ) && ( bodyLength == archive.data.size() );
            inBody = true;
        }
        const auto take = std::min( static_cast<std::size_t>( got ) - position, bodyLength - bodyDone );
        if ( ( take > 0 ) && ( firstByte < 0 ) ) {
            firstByte = nowSeconds();
        }
        ok = ok && ( std::memcmp( buffer.data() + position, archive.data.data() + bodyDone, take ) == 0 );
        bodyDone += take;
        if ( !ok ) {
            break;
        }
    }
    const auto end = nowSeconds();
    std::ostringstream out;
    out.precision( 9 );
    out << "{\"ok\":" << ( ok ? "true" : "false" ) << ",\"bytes\":" << bodyDone
        << ",\"first_byte_s\":" << ( firstByte < 0 ? 0.0 : firstByte - start ) << ",\"wall_s\":" << end - start
        << '}';
    return out.str();
}

/** Serial zlib decode of @p path, byte-compared with the regenerated corpus. */
std::string
serialReference( const std::string& path, const Archive& archive )
{
    const auto start = nowSeconds();
    std::ifstream file( path, std::ios::binary | std::ios::ate );
    std::vector<std::uint8_t> compressed( static_cast<std::size_t>( std::max<std::streamoff>( 0, file.tellg() ) ) );
    file.seekg( 0 );
    file.read( reinterpret_cast<char*>( compressed.data() ), static_cast<std::streamsize>( compressed.size() ) );
    std::size_t position = 0;
    bool ok = static_cast<bool>( file );
    try {
        serialDecode( "gzip", compressed, [&] ( const std::uint8_t* data, std::size_t size ) {
            ok = ok && ( position + size <= archive.data.size() )
                 && ( std::memcmp( data, archive.data.data() + position, size ) == 0 );
            position += size;
        } );
    } catch ( const std::exception& ) {
        ok = false;
    }
    ok = ok && ( position == archive.data.size() );
    std::ostringstream out;
    out.precision( 9 );
    out << "{\"ok\":" << ( ok ? "true" : "false" ) << ",\"bytes\":" << position
        << ",\"wall_s\":" << nowSeconds() - start << '}';
    return out.str();
}

}  // namespace

int
runLoad( int argc, char** argv )
{
    const auto options = parseArguments( argc, argv );
    const auto port = static_cast<std::uint16_t>( std::stoul( get( options, "port" ) ) );
    std::vector<Archive> archives;
    for ( const auto& spec : split( get( options, "archives" ), ',' ) ) {
        const auto fields = split( spec, ':' );
        if ( fields.size() != 4 ) {
            throw std::invalid_argument( "archive spec must be name:corpus:size:seed" );
        }
        archives.push_back( { fields[0], makeCorpus( fields[1], std::stoull( fields[2] ), std::stoull( fields[3] ) ) } );
    }
    const auto phase = get( options, "phase" );
    if ( phase == "full" ) {
        /* Rounds of whole-archive GETs, each followed by the serial zlib
         * decode of the same archive file in this process (the pair the
         * speedup is computed from). */
        const auto paths = split( get( options, "paths" ), ',' );
        if ( paths.size() != archives.size() ) {
            throw std::invalid_argument( "--paths needs one compressed file per archive" );
        }
        const auto rounds = std::stoul( get( options, "rounds" ) );
        std::string result = "{\"pairs\":[";
        for ( std::size_t round = 0; round < rounds; ++round ) {
            for ( std::size_t i = 0; i < archives.size(); ++i ) {
                result += ( round + i == 0 ? "" : "," ) + std::string( "{\"round\":" ) + std::to_string( round )
                          + ",\"get\":" + fullGet( port, archives[i] )
                          + ",\"serial\":" + serialReference( paths[i], archives[i] ) + "}";
            }
        }
        std::printf( "%s]}\n", result.c_str() );
        return 0;
    }

    RequestPlan plan( archives, std::stoull( get( options, "seed" ) ) );
    OpenLoop loop( port, archives, std::stoull( get( options, "conns" ) ) );
    const auto drain = options.count( "drain-seconds" ) != 0 ? std::stod( options.at( "drain-seconds" ) ) : 5.0;

    std::vector<double> rates;
    double seconds = 0;
    if ( phase == "openloop" ) {
        rates.push_back( std::stod( get( options, "rate" ) ) );
        seconds = std::stod( get( options, "seconds" ) );
    } else if ( phase == "ladder" ) {
        for ( const auto& rate : split( get( options, "rates" ), ',' ) ) {
            rates.push_back( std::stod( rate ) );
        }
        seconds = std::stod( get( options, "rung-seconds" ) );
    } else {
        throw std::invalid_argument( "unknown phase " + phase );
    }
    const auto limitMs = options.count( "limit-ms" ) != 0 ? std::stod( options.at( "limit-ms" ) ) : 0.0;

    std::string result = "{\"phases\":[";
    for ( std::size_t i = 0; i < rates.size(); ++i ) {
        auto requests = plan.schedule( rates[i], seconds, nowSeconds() + 0.01 );
        loop.run( requests, drain );
        result += ( i == 0 ? "" : "," ) + summarize( requests, rates[i] );
        if ( limitMs > 0 ) {
            /* A ladder stops at the first rung whose tail misses the limit:
             * count failures as misses, look at the 99th percentile. */
            std::vector<double> latency;
            for ( const auto& request : requests ) {
                latency.push_back( request.ok && ( request.done >= 0 ) ? request.done - request.due : 1e9 );
            }
            std::sort( latency.begin(), latency.end() );
            if ( latency.empty() || ( latency[latency.size() * 99 / 100] * 1e3 > limitMs ) ) {
                break;
            }
        }
    }
    std::printf( "%s]}\n", result.c_str() );
    return 0;
}

}  // namespace perfbench
