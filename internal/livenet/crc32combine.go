package livenet

// CRC-32 is a linear function over GF(2): the checksum of a
// concatenation A||B can be computed from crc(A), crc(B), and len(B)
// alone, without touching the bytes, by advancing crc(A) through len(B)
// zero bytes and xoring in crc(B). Advancing by n zero bytes multiplies
// the CRC register, read as a polynomial over GF(2), by x^(8n) modulo
// the CRC polynomial P — so the whole shift is ONE 32-bit operator,
// x^(8n) mod P, built by square-and-multiply in O(log n) 32-step
// multiplies and applied in a single multiply (the multmodp/x2nmodp
// form zlib adopted in 1.2.12, replacing its 32x32 matrix squarings).
// That lets a memory-mode NM verify a spliced image's whole-image
// digest from the per-chunk CRCs it already verified individually:
// one operator per distinct chunk length — the manifest's ChunkBytes
// and its tail — then one multiply per chunk, O(chunks) in all instead
// of an O(image-bytes) read-back pass.

// ieeeReversedPoly is the reversed (LSB-first) form of the IEEE CRC-32
// polynomial, matching hash/crc32's IEEE table. In this representation
// bit 31 is the coefficient of x^0 and bit 0 that of x^31.
const ieeeReversedPoly = 0xedb88320

// crcShift is the operator that advances a CRC-32 through a fixed
// number of zero bytes: the polynomial x^(8n) mod P.
type crcShift uint32

// mulModP multiplies two polynomials modulo P (at most 32 steps).
func mulModP(a, b uint32) uint32 {
	var p uint32
	// m walks a's coefficients from x^0 up and stops after the last set
	// one; b is multiplied by x (mod P) at each step.
	for m := uint32(1) << 31; m != 0 && a&(m|(m-1)) != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
		}
		if b&1 != 0 {
			b = b>>1 ^ ieeeReversedPoly
		} else {
			b >>= 1
		}
	}
	return p
}

// newCRCShift builds the operator for n zero bytes (n <= 0 is the
// identity).
func newCRCShift(n int64) crcShift {
	op := uint32(1) << 31 // x^0
	sq := uint32(1) << 23 // x^8: one zero byte; squared once per bit of n
	for ; n > 0; n >>= 1 {
		if n&1 != 0 {
			op = mulModP(sq, op)
		}
		sq = mulModP(sq, sq)
	}
	return crcShift(op)
}

// combine returns crc32.ChecksumIEEE(A||B) given crc1 = ChecksumIEEE(A)
// and crc2 = ChecksumIEEE(B), where len(B) is the length op was built
// for.
func (op crcShift) combine(crc1, crc2 uint32) uint32 {
	return mulModP(uint32(op), crc1) ^ crc2
}

// crc32Combine is the one-shot form: build the operator for len2 and
// apply it once.
func crc32Combine(crc1, crc2 uint32, len2 int64) uint32 {
	return newCRCShift(len2).combine(crc1, crc2)
}

// foldChunkCRCs returns the CRC-32 of an image cut into len(crcs)
// chunks — every chunk chunkBytes long except the last, which is
// tailBytes — from the chunks' own CRCs, and how many shift operators
// it built doing so: one per distinct length, so at most two however
// many chunks there are.
func foldChunkCRCs(crcs []uint32, chunkBytes, tailBytes int) (crc uint32, built int) {
	if len(crcs) == 0 {
		return 0, 0
	}
	last := len(crcs) - 1
	body := newCRCShift(int64(chunkBytes))
	built = 1
	for _, c := range crcs[:last] {
		crc = body.combine(crc, c)
	}
	tail := body
	if tailBytes != chunkBytes {
		tail = newCRCShift(int64(tailBytes))
		built = 2
	}
	return tail.combine(crc, crcs[last]), built
}
