package service

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
)

// This file converts the number decoder.number has read to the float64
// strconv.ParseFloat makes of its text, bit for bit, without reading the
// text again. While number checks the grammar it folds the first 19
// significant digits into a uint64 and counts the decimal exponent
// (decimal); float64 converts that by one of two algorithms that round
// correctly whenever they answer, as strconv always does:
//
//   - Clinger's fast path: a mantissa below 2^53 and a power of ten up to
//     10^22 are both exact float64s, so one IEEE multiply or divide is the
//     correctly rounded value.
//   - Eisel–Lemire (D. Lemire, "Number Parsing at a Gigabyte per Second",
//     arXiv 2101.11408; the code follows Go's own strconv/eisel_lemire.go):
//     the mantissa times a 128-bit power of ten rounded down, which settles
//     the float64 unless the product lies too near a rounding boundary —
//     and then it says so.
//
// Everything else — a nonzero digit past the 19th, an exponent outside
// the table, Eisel–Lemire's ambiguous exit — is strconv's, with its error.

// decimal is a JSON number as decoder.number reads it: ±man·10^exp, with
// man its first 19 significant digits (leading zeros do not count).
// lossy means that is not the number's value — a nonzero digit past the
// 19th was dropped, or the exponent has more digits than are kept — and
// only strconv may convert it.
type decimal struct {
	man   uint64
	exp   int
	nd    int // significant digits in man
	neg   bool
	lossy bool
}

// maxMantDigits is how many significant decimal digits a uint64 always
// holds: 10^19 - 1 < 2^64.
const maxMantDigits = 19

// digits folds the run of decimal digits that starts at i into n and
// returns where it ends. frac marks a fraction's digits: each one kept
// lowers the exponent, where an integer part's digit past the kept ones
// raises it. Leading zeros, past an integer part of 0, are not kept. While
// eight bytes remain before the kept digits run out, they are read as one
// word, and folded in one step when all eight are digits (eightDigits).
func (n *decimal) digits(data []byte, i int, frac bool) int {
	start := i
	if n.man == 0 {
		for i < len(data) && data[i] == '0' {
			i++
		}
	}
	kept := i
	stop := min(len(data), i+maxMantDigits-n.nd)
	for ; i+8 <= stop; i += 8 {
		v, ok := eightDigits(binary.LittleEndian.Uint64(data[i:]))
		if !ok {
			break
		}
		n.man = n.man*1e8 + v
	}
	for ; i < stop && isDigit(data[i]); i++ {
		n.man = n.man*10 + uint64(data[i]-'0')
	}
	n.nd += i - kept
	if frac {
		n.exp -= i - start
	}
	for ; i < len(data) && isDigit(data[i]); i++ {
		if !frac {
			n.exp++
		}
		n.lossy = n.lossy || data[i] != '0'
	}
	return i
}

// eightDigits returns the value of the eight ASCII digits in w, the first
// in its low byte, and false when any byte of w is not a digit. The test
// and the three multiplies that fold pairs, quads and the two halves are
// Lemire's (arXiv 2101.11408, after fast_float): a byte is a digit when
// its high nibble is 3 and adding 6 does not carry out of its low nibble.
func eightDigits(w uint64) (uint64, bool) {
	const hi = 0xF0F0F0F0F0F0F0F0
	if w&hi|((w+0x0606060606060606)&hi)>>4 != 0x3333333333333333 {
		return 0, false
	}
	const mask, mul1, mul2 = 0x000000FF000000FF, 100 + 1000000<<32, 1 + 10000<<32
	w -= 0x3030303030303030
	w = w*10 + w>>8 // 10·d[2j] + d[2j+1] in byte 2j
	return ((w&mask)*mul1 + ((w>>16)&mask)*mul2) >> 32, true
}

// exponent adds the exponent written after the 'e' to n, reading the
// digits from i on, and returns where they end. Five digits are kept —
// every exponent a float64 can use, with room for the digits counted
// above — and a longer one makes n lossy.
func (n *decimal) exponent(data []byte, i int, neg bool) int {
	e := 0
	for ; i < len(data) && isDigit(data[i]); i++ {
		if e < 1e4 {
			e = e*10 + int(data[i]-'0')
		} else {
			n.lossy = true
		}
	}
	if neg {
		e = -e
	}
	n.exp += e
	return i
}

// float64 returns the number's value, or false when strconv must work it
// out from the text.
func (n *decimal) float64() (float64, bool) {
	if n.lossy {
		return 0, false
	}
	if n.man>>53 == 0 && -22 <= n.exp && n.exp <= 22 {
		f := float64(n.man)
		if n.neg {
			f = -f
		}
		if n.exp < 0 {
			return f / exactPow10[-n.exp], true
		}
		return f * exactPow10[n.exp], true
	}
	return eiselLemire(n.man, n.exp, n.neg)
}

// exactPow10 holds the powers of ten a float64 holds exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// The exponents pow10Mant covers, ±pow10MaxExp. Request numbers are
// probabilities and multipliers, written with at most 17 digits: their
// exponents lie within about ±25, and a number outside the table goes to
// strconv.
const pow10MaxExp, pow10MinExp = 40, -40

// pow10Mant[e-pow10MinExp] is 10^e's 128-bit mantissa rounded down, as
// {low word, high word} with the high word's top bit set: the rows of
// strconv's detailedPowersOfTen for these exponents, computed exactly with
// math/big when the package loads rather than pasted.
var pow10Mant = func() (t [pow10MaxExp - pow10MinExp + 1][2]uint64) {
	p, m, ten := big.NewInt(1), new(big.Int), big.NewInt(10)
	row := func(e int) {
		var b [16]byte
		m.FillBytes(b[:])
		t[e-pow10MinExp] = [2]uint64{binary.BigEndian.Uint64(b[8:]), binary.BigEndian.Uint64(b[:8])}
	}
	for e := 0; e <= pow10MaxExp; e++ { // p = 10^e, of l bits
		l := p.BitLen()
		if l <= 128 {
			m.Lsh(p, uint(128-l))
		} else {
			m.Rsh(p, uint(l-128))
		}
		row(e)
		if e > 0 { // 2^(127+l) / 10^e lies in [2^127, 2^128)
			m.Quo(m.Lsh(m.SetInt64(1), uint(127+l)), p)
			row(-e)
		}
		p.Mul(p, ten)
	}
	return t
}()

// eiselLemire is strconv's eiselLemire64 over pow10Mant: man·10^exp10
// rounded to a float64, or false where the 128-bit product cannot tell
// which way the rounding goes, or the result is subnormal or infinite.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if exp10 < pow10MinExp || exp10 > pow10MaxExp {
		return 0, false
	}
	pow := &pow10Mant[exp10-pow10MinExp]

	// Normalize man, and take the float's biased binary exponent off
	// exp10·log2(10) (217706/2^16 ≈ log2 10).
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	retExp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)

	// The product's high 64 bits; when the bits below the 54 kept may
	// carry, the power's low word settles them, or nothing can.
	xHi, xLo := bits.Mul64(man, pow[1])
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Keep 54 bits; an exact half-way product cannot be rounded here.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// Round to 53 bits, half to even.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2++
	}
	if retExp2-1 >= 0x7FF-1 { // subnormal, or past the largest float64
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&(1<<52-1)
	if neg {
		retBits |= 1 << 63
	}
	return math.Float64frombits(retBits), true
}
