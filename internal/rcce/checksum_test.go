package rcce

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"
)

// checksumSizes are the payloads the checksum tests run on: one byte, an
// 11-double ring block, a 12-double block and a full 4,416-B chunk.
var checksumSizes = []int{1, 88, 96, 4416}

func checksumPayload(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// TestChunkSumIsCRC32C pins the chunk checksum to CRC-32C over the
// sequence byte followed by the payload, with the epoch salt XORed in,
// and checks that computing it allocates nothing.
func TestChunkSumIsCRC32C(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	tab := crc32.MakeTable(crc32.Castagnoli)
	for _, n := range append([]int{0}, checksumSizes...) {
		payload := checksumPayload(rng, n)
		for _, seq := range []byte{0, 1, 2, 0x7F, 0x80, 0xFF} {
			for _, salt := range []uint32{0, 0x9E3779B1, 0xFFFFFFFF} {
				want := crc32.Checksum(append([]byte{seq}, payload...), tab) ^ salt
				if got := chunkSum(seq, payload, salt); got != want {
					t.Fatalf("n=%d seq=%d salt=%#x: chunkSum = %#08x, want %#08x", n, seq, salt, got, want)
				}
			}
		}
	}
	payload := checksumPayload(rng, 4416)
	var sink uint32
	if a := testing.AllocsPerRun(100, func() { sink ^= chunkSum(7, payload, 3) }); a != 0 {
		t.Fatalf("chunkSum allocates %.1f objects per call, want 0", a)
	}
}

// TestChunkSumDetectsBursts: on each payload size the sum changes under
// every other sequence number, another epoch salt, every single-bit flip
// and a seeded sample of error bursts confined to one 32-bit window at
// every byte offset (CRC-32C detects every burst of up to 32 bits).
func TestChunkSumDetectsBursts(t *testing.T) {
	rng := rand.New(rand.NewSource(1993))
	const seq, salt = 5, 0x9E3779B1
	for _, n := range checksumSizes {
		payload := checksumPayload(rng, n)
		sum := chunkSum(seq, payload, salt)
		for s := range 256 {
			if s != seq && chunkSum(byte(s), payload, salt) == sum {
				t.Fatalf("n=%d: sequence %d sums like %d", n, s, seq)
			}
		}
		if chunkSum(seq, payload, salt+1) == sum {
			t.Fatalf("n=%d: another epoch salt sums alike", n)
		}
		for bit := range 8 * n {
			payload[bit/8] ^= 1 << (bit % 8)
			if chunkSum(seq, payload, salt) == sum {
				t.Fatalf("n=%d: flipping bit %d goes undetected", n, bit)
			}
			payload[bit/8] ^= 1 << (bit % 8)
		}
		var burst [4]byte
		for off := range n {
			w := min(4, n-off)
			for range 4 {
				// A nonzero pattern in the w bytes from off: a burst of at
				// most 8*w <= 32 bits.
				for {
					rng.Read(burst[:w])
					if burst != [4]byte{} {
						break
					}
				}
				for i := range w {
					payload[off+i] ^= burst[i]
				}
				if chunkSum(seq, payload, salt) == sum {
					t.Fatalf("n=%d: burst %x at byte %d goes undetected", n, burst[:w], off)
				}
				for i := range w {
					payload[off+i] ^= burst[i]
				}
			}
		}
	}
}

// BenchmarkChunkSum times one chunk checksum on a ring block and on a
// full chunk.
func BenchmarkChunkSum(b *testing.B) {
	for _, n := range []int{88, 4416} {
		payload := checksumPayload(rand.New(rand.NewSource(1)), n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			var sink uint32
			for range b.N {
				sink ^= chunkSum(7, payload, sink)
			}
		})
	}
}
