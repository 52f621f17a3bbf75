package service

import (
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// numberSeeds are the literals FuzzParseNumber starts from and
// decodeEdgeCases carries as "p" values: bench-shaped 17-digit
// probabilities, mantissas around the 19 digits a uint64 keeps, the ends
// of the float64 range, Clinger's and Eisel–Lemire's exits, exponents at
// both edges of the power table and one past each, and the seams of the
// eight-digit step (decimal.digits): a non-digit at each offset of the
// word read, runs of digits around one and two words, leading zeros
// before a word, and a word that would cross the 19 kept digits.
var numberSeeds = []string{
	"0.000e-000001", "1.2345678901", "12.345678901", "123.45678901", "1234.5678901", "12345.678901",
	"123456.78901", "1234567.8901", "1234567e+123", "0.1234567e-12", "0.12345670e-12", "-1234567.8901",
	"1234567", "12345678", "123456789", "1234567890123456", "12345678901234567", "98765432109876543",
	"0.1234567", "0.12345678", "0.123456789", "0.1234567890123456", "0.12345678901234567", "0.12345678901234567890",
	"0.0000000012345678", "0.00012345678e-3", "0.000000001234567890123456789", "00000000",
	"123456789012.34567891", "12345678901234.567890123", "1234567890123.0000000", "99999999.99999999999",
	"12345678901234567891234", "1234567890123456.7890", "9999999999999999999.5", "1.00000000000000000001",
	"0.012345678901234567", "0.0017380544519626408", "4.6010963470416105", "0.00019999999999999998",
	"1234567890123456789", "12345678901234567890", "12345678901234567891", "0.1234567890123456789",
	"1234567890123456789012345678901234567890", "0.0000000001234567890123456789012345678901234567890",
	"9007199254740992", "9007199254740993", "9007199254740993.0", "18446744073709551615",
	"2.2250738585072011e-308", "2.2250738585072014e-308", "4.9e-324", "5e-324", "2e-324", "1e-400",
	"1.7976931348623157e308", "1.7976931348623159e308", "1e309", "1e308",
	"-0", "-0.0", "0e100005", "-0e-7", "1E+2", "1e+22", "1e22", "1e23", "-1e-22", "9007199254740991e22",
	"1234567890123456789e-40", "1234567890123456789e-41", "1234567890123456789e40", "1234567890123456789e41",
	"1e-40", "1e-41", "1e40", "1e41", "0.00000000000000000000012345678901234567e-23", "-1.5e-41",
	"1e00000000000000000000000000001", "1e100000", "1e-100000", "0.5e1000000",
	"0e-30", "-0.000e99", "9007199254740991.9", "0.99999999999999999", "-99999999999999999999e-20",
}

// checkParseNumber holds the decoder's conversion of one JSON number to
// strconv.ParseFloat's: the same bits, or an error on both sides. Text
// that is not one JSON number is left out — strconv also takes Inf, hex
// and underscores, which the grammar refuses before any conversion.
func checkParseNumber(t *testing.T, s string) {
	t.Helper()
	if s == "" || s[0] != '-' && !isDigit(s[0]) {
		return
	}
	d, n := decoder{data: []byte(s)}, decimal{}
	if _, err := d.number(&n); err != nil || d.pos != len(s) {
		return
	}
	d.pos = 0
	var got float64
	err := d.float(&got)
	want, wantErr := strconv.ParseFloat(s, 64)
	if (err == nil) != (wantErr == nil) || err == nil && math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%q: decoder %v (bits %#x, err %v), strconv %v (bits %#x, err %v)",
			s, got, math.Float64bits(got), err, want, math.Float64bits(want), wantErr)
	}
}

// FuzzParseNumber pins the decoder's one-scan conversion to strconv bit
// for bit, and its refusals to strconv's errors.
func FuzzParseNumber(f *testing.F) {
	for _, s := range numberSeeds {
		f.Add(s)
	}
	f.Fuzz(checkParseNumber)
}

// TestParseNumberMatchesStrconv runs the fuzz target's check over random
// literals of the shapes that reach each conversion path: the shortest
// spelling of random float64s across the power table and past it (as the
// benchmark writes them), random digit strings of 1–25 digits with random
// exponents, and integers halfway between two neighbouring float64s.
func TestParseNumberMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, s := range numberSeeds {
		checkParseNumber(t, s)
	}
	for i := 0; i < 100000; i++ {
		var s string
		switch i % 4 {
		case 0:
			f := rng.Float64() * math.Pow10(rng.Intn(100)-50)
			s = strconv.FormatFloat(f, 'g', -1, 64)
		case 1:
			f := rng.Float64() * math.Pow10(rng.Intn(100)-50)
			s = strconv.FormatFloat(f, 'e', rng.Intn(20), 64)
		case 2:
			var b strings.Builder
			b.WriteByte(byte('1' + rng.Intn(9)))
			for n := rng.Intn(25); n > 0; n-- {
				b.WriteByte(byte('0' + rng.Intn(10)))
			}
			s = b.String()
			switch k := 1 + rng.Intn(len(s)); rng.Intn(3) {
			case 0:
				if k < len(s) {
					s = s[:k] + "." + s[k:]
				}
			case 1:
				s = "0." + strings.Repeat("0", rng.Intn(5)) + s
			}
			s += "e" + strconv.Itoa(rng.Intn(120)-60)
		default:
			// The exact midpoint of a float64 between 2^54 and 2^63 and its
			// successor: an integer of up to 19 digits, a tie only strconv
			// may round.
			f := float64(1<<54 + rng.Int63n(1<<63-1<<54))
			mid := new(big.Float).SetPrec(128).SetFloat64(f)
			mid.Add(mid, big.NewFloat(math.Nextafter(f, math.Inf(1))))
			s = mid.Quo(mid, big.NewFloat(2)).Text('f', 0)
		}
		if rng.Intn(8) == 0 {
			s = "-" + s
		}
		checkParseNumber(t, s)
	}
}

// TestPow10Table pins rows of the init-built power table to strconv's
// detailedPowersOfTen (eisel_lemire.go): {low, high} words of 10^e's
// 128-bit mantissa, rounded down.
func TestPow10Table(t *testing.T) {
	for _, row := range []struct {
		e      int
		lo, hi uint64
	}{
		{-40, 0x2323AC4B3B3DA015, 0x8B61313BBABCE2C6},
		{-22, 0x5324C68B12DD6338, 0xF1C90080BAF72CB1},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		{0, 0, 0x8000000000000000},
		{22, 0, 0x878678326EAC9000},
		{40, 0x5DCFAB0800000000, 0xEB194F8E1AE525FD},
	} {
		if got := pow10Mant[row.e-pow10MinExp]; got != [2]uint64{row.lo, row.hi} {
			t.Errorf("10^%d: {%#x, %#x}, want {%#x, %#x}", row.e, got[0], got[1], row.lo, row.hi)
		}
	}
}
