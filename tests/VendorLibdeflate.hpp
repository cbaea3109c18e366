#pragma once

/*
 * libdeflate as a test oracle and benchmark ceiling — never as part of the
 * library: only the test and bench targets that include this header link
 * libdeflate, so rapidgzip_core and the tools load no extra shared object.
 *
 * Images commonly ship only the runtime libdeflate.so.0 (no libdeflate.h),
 * so, like formats/VendorZstd.hpp, this declares precisely the documented
 * stable C entry points it uses.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#if defined( RAPIDGZIP_HAVE_LIBDEFLATE )

extern "C" {

struct libdeflate_decompressor;
libdeflate_decompressor* libdeflate_alloc_decompressor( void );
void libdeflate_free_decompressor( libdeflate_decompressor* decompressor );
/* enum libdeflate_result, passed as int: 0 = LIBDEFLATE_SUCCESS. */
int libdeflate_deflate_decompress_ex( libdeflate_decompressor* decompressor,
                                      const void* in, std::size_t inBytes,
                                      void* out, std::size_t outBytesAvailable,
                                      std::size_t* actualInBytes,
                                      std::size_t* actualOutBytes );

}  /* extern "C" */

#endif

namespace rapidgzip::vendor {

#if defined( RAPIDGZIP_HAVE_LIBDEFLATE )
inline constexpr bool HAVE_LIBDEFLATE = true;
#else
inline constexpr bool HAVE_LIBDEFLATE = false;
#endif

/** One reusable libdeflate decompressor for whole raw-Deflate streams. */
class LibdeflateDecompressor
{
public:
    LibdeflateDecompressor() = default;

    ~LibdeflateDecompressor()
    {
#if defined( RAPIDGZIP_HAVE_LIBDEFLATE )
        if ( m_decompressor != nullptr ) {
            libdeflate_free_decompressor( m_decompressor );
        }
#endif
    }

    LibdeflateDecompressor( const LibdeflateDecompressor& ) = delete;
    LibdeflateDecompressor& operator=( const LibdeflateDecompressor& ) = delete;

    /**
     * Decompress the raw-Deflate stream at @p data into @p output, which
     * must be sized to the expected decoded size (libdeflate needs the
     * bound up front). Returns false on any libdeflate error, a short
     * output, or when the library is absent.
     */
    [[nodiscard]] bool
    decompress( const std::uint8_t* data, std::size_t size, std::vector<std::uint8_t>& output )
    {
#if defined( RAPIDGZIP_HAVE_LIBDEFLATE )
        if ( m_decompressor == nullptr ) {
            m_decompressor = libdeflate_alloc_decompressor();
            if ( m_decompressor == nullptr ) {
                return false;
            }
        }
        std::size_t inBytes = 0;
        std::size_t outBytes = 0;
        const auto result = libdeflate_deflate_decompress_ex(
            m_decompressor, data, size, output.data(), output.size(), &inBytes, &outBytes );
        return ( result == 0 ) && ( outBytes == output.size() );
#else
        (void)data;
        (void)size;
        (void)output;
        return false;
#endif
    }

private:
#if defined( RAPIDGZIP_HAVE_LIBDEFLATE )
    libdeflate_decompressor* m_decompressor{ nullptr };
#endif
};

}  // namespace rapidgzip::vendor
