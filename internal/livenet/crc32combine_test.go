package livenet

import (
	"hash/crc32"
	"math/rand"
	"testing"
)

// TestCRC32Combine checks the GF(2) combine against direct checksums of
// the concatenation, across chunk-boundary shapes (empty parts, 1-byte
// parts, sizes around word boundaries, and many-chunk folds).
func TestCRC32Combine(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	buf := make([]byte, 9000)
	rng.Read(buf)
	splits := []int{0, 1, 3, 7, 8, 9, 255, 256, 4096, len(buf)}
	for _, cut := range splits {
		a, b := buf[:cut], buf[cut:]
		got := crc32Combine(crc32.ChecksumIEEE(a), crc32.ChecksumIEEE(b), int64(len(b)))
		if want := crc32.ChecksumIEEE(buf); got != want {
			t.Fatalf("combine at split %d = %08x, want %08x", cut, got, want)
		}
	}
	// Fold a long chunk list like a manifest finalize does.
	var acc uint32
	for off := 0; off < len(buf); off += 1234 {
		end := off + 1234
		if end > len(buf) {
			end = len(buf)
		}
		part := buf[off:end]
		acc = crc32Combine(acc, crc32.ChecksumIEEE(part), int64(len(part)))
	}
	if want := crc32.ChecksumIEEE(buf); acc != want {
		t.Fatalf("chunk fold = %08x, want %08x", acc, want)
	}
}

// zeroCRCs streams n zero bytes through hash/crc32 twice at once: it
// returns ChecksumIEEE(prefix || 0^n) and ChecksumIEEE(0^n).
func zeroCRCs(prefix []byte, n int64) (joined, zeros uint32) {
	block := make([]byte, 1<<20)
	joined = crc32.ChecksumIEEE(prefix)
	for n > 0 {
		b := block
		if n < int64(len(b)) {
			b = b[:n]
		}
		joined = crc32.Update(joined, crc32.IEEETable, b)
		zeros = crc32.Update(zeros, crc32.IEEETable, b)
		n -= int64(len(b))
	}
	return joined, zeros
}

// checkShift holds the operator for n bytes to its two laws: splitting n
// anywhere composes (x^8a · x^8b = x^8(a+b)), and — where n is small
// enough to stream — it agrees with hash/crc32 over real bytes.
func checkShift(t *testing.T, prefix []byte, n int64, streamMax int64) {
	t.Helper()
	op := newCRCShift(n)
	a := n / 3
	if got := crcShift(mulModP(uint32(newCRCShift(a)), uint32(newCRCShift(n-a)))); got != op {
		t.Fatalf("shift(%d)·shift(%d) = %08x, shift(%d) = %08x", a, n-a, got, n, op)
	}
	if n > streamMax {
		return
	}
	joined, zeros := zeroCRCs(prefix, n)
	if got := op.combine(crc32.ChecksumIEEE(prefix), zeros); got != joined {
		t.Fatalf("combine over %d zero bytes = %08x, hash/crc32 says %08x", n, got, joined)
	}
}

// TestCRC32ShiftLengths walks the operator over 0, 1 and 2^k±1 up to
// 2^32, streaming real bytes through hash/crc32 up to 16 MiB (and, off
// -short, once at 2^32+1, the length a 32-bit count would wrap at).
func TestCRC32ShiftLengths(t *testing.T) {
	prefix := []byte("storm")
	for k := uint(0); k <= 32; k++ {
		for _, n := range []int64{1<<k - 1, 1 << k, 1<<k + 1} {
			checkShift(t, prefix, n, 16<<20)
		}
	}
	if !testing.Short() {
		checkShift(t, prefix, 1<<32+1, 1<<32+1)
	}
}

// FuzzCRC32Combine checks operator build + apply against hash/crc32:
// data cut at an arbitrary point must recombine to its own checksum
// (one-shot and through foldChunkCRCs with the cut as chunk size), and
// the operator for an arbitrary length up to 2^33 must obey checkShift.
func FuzzCRC32Combine(f *testing.F) {
	f.Add([]byte(""), uint16(0), uint64(0))
	f.Add([]byte("a"), uint16(1), uint64(1))
	f.Add([]byte("lightning-fast resource management"), uint16(9), uint64(256<<10))
	for k := uint(1); k <= 32; k++ {
		f.Add([]byte{byte(k), 0xff, 0}, uint16(k), uint64(1)<<k-1)
		f.Add([]byte{0, byte(k)}, uint16(k), uint64(1)<<k+1)
	}
	f.Fuzz(func(t *testing.T, data []byte, cut uint16, n uint64) {
		c := int(cut) % (len(data) + 1)
		a, b := data[:c], data[c:]
		want := crc32.ChecksumIEEE(data)
		if got := crc32Combine(crc32.ChecksumIEEE(a), crc32.ChecksumIEEE(b), int64(len(b))); got != want {
			t.Fatalf("combine at %d of %d = %08x, want %08x", c, len(data), got, want)
		}
		if c > 0 {
			var crcs []uint32
			for off := 0; off < len(data); off += c {
				crcs = append(crcs, crc32.ChecksumIEEE(data[off:min(off+c, len(data))]))
			}
			tail := len(data) - (len(crcs)-1)*c
			if got, built := foldChunkCRCs(crcs, c, tail); got != want || built > 2 {
				t.Fatalf("fold of %d chunks of %d = %08x with %d operators, want %08x with <= 2",
					len(crcs), c, got, built, want)
			}
		}
		checkShift(t, data, int64(n%(1<<33)), 1<<20)
	})
}

// foldSink keeps the benchmarked fold from being optimized away.
var foldSink uint32

// benchFold is one NM's digest check of a 16-chunk image with a short
// tail: two operator builds, sixteen applies.
func benchFold(chunk int) func() {
	crcs := make([]uint32, 16)
	for i := range crcs {
		crcs[i] = uint32(i+1) * 0x9e3779b9
	}
	return func() { foldSink, _ = foldChunkCRCs(crcs, chunk, chunk-1) }
}

func BenchmarkCRC32Combine(b *testing.B) {
	for _, size := range []struct {
		name  string
		chunk int
	}{{"32KiB", 32 << 10}, {"256KiB", 256 << 10}} {
		b.Run(size.name, func(b *testing.B) {
			fold := benchFold(size.chunk)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fold()
			}
		})
	}
}

// TestCRC32CombineAllocs pins the digest fold at zero allocations: it
// runs once per launch on every NM.
func TestCRC32CombineAllocs(t *testing.T) {
	for _, chunk := range []int{32 << 10, 256 << 10} {
		if avg := testing.AllocsPerRun(100, benchFold(chunk)); avg != 0 {
			t.Fatalf("fold at %d-byte chunks allocates %.1f/op, want 0", chunk, avg)
		}
	}
}
