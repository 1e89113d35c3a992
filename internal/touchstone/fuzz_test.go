package touchstone

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/cmplx"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/vectfit"
)

// seedCorpus feeds every checked-in golden .snp file plus handcrafted
// format/unit/layout variants into a fuzz target. The goldens cover
// RI/MA/DB × ports 1–4 (including the 2-port column-major quirk and the
// row-wrapped n≥3 layout); the handcrafted seeds cover the unit keywords,
// header quirks and each rejection path.
func seedCorpus(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "golden", "*.s*p"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no golden seed files: %v", err)
	}
	ext := regexp.MustCompile(`\.s(\d)p$`)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		m := ext.FindStringSubmatch(p)
		f.Add(b, m[1][0]-'0')
	}
	for _, s := range []struct {
		src   string
		ports byte
	}{
		{"# HZ S RI R 50\n1e9 0.5 0.1\n2e9 0.4 -0.2\n", 1},
		{"# KHz S MA\n100 0.5 45\n200 0.4 -90\n", 1},
		{"# MHz S DB R 75\n100 -3.0 10\n", 1},
		{"#GHz S RI\n1 11 0 21 0 12 0 22 0\n", 2}, // 2-port column-major
		{"! c\n# GHz S RI ! trailing\n1 0.5 0.1\n", 1},
		{"# GHz S RI\n1 0.5\n", 1},                                                 // truncated sample
		{"# GHz S RI\n2 1 0\n1 1 0\n", 1},                                          // non-monotone
		{"# GHz Y RI\n1 0.5 0.1\n", 1},                                             // rejected representation
		{"# GHz S RI R\n1 0.5 0.1\n", 1},                                           // R without value
		{"# GHz S RI\n# GHz S RI\n1 1 0\n", 1} /* double option */, {"1 1 0\n", 1}, // data first
		{"# GHz S RI\n1 NaN 0\n", 1},
		{"#DB\n0 7000 0", 1},                     // finite token, 10^(a/20) overflows (found by fuzzing)
		{"# GHz S RI\n1e308 1 0\n", 1},           // finite freq token overflows after unit scaling
		{"# Hz S RI\n1e300 1 0\n2e300 1 0\n", 1}, // large but finite after scaling — accepted
		{"", 3},
	} {
		f.Add([]byte(s.src), s.ports)
	}
}

// readerCollect drains a streaming parse of data, mirroring Parse's
// accept/reject contract (including the ≥1-sample rule).
func readerCollect(data []byte, ports int) ([]vectfit.Sample, float64, error) {
	rd, err := NewReader(bytes.NewReader(data), ports)
	if err != nil {
		return nil, 0, err
	}
	var out []vectfit.Sample
	if err := rd.Each(func(s vectfit.Sample) error { out = append(out, s); return nil }); err != nil {
		return nil, 0, err
	}
	if len(out) == 0 {
		return nil, 0, errors.New("no data samples")
	}
	return out, rd.Reference(), nil
}

// FuzzParse cross-checks the buffered and streaming entry points on
// arbitrary input: no panics, no hangs, identical accept/reject decisions,
// and bit-identical samples when accepted — plus the parsed-data
// invariants every downstream consumer (vectfit, the Hamiltonian tools)
// relies on.
func FuzzParse(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte, pb byte) {
		// Identity on 1–4 so every seed parses at its declared port count.
		ports := (int(pb)+3)%4 + 1
		d, perr := Parse(bytes.NewReader(data), ports)
		streamed, ref, serr := readerCollect(data, ports)
		if (perr == nil) != (serr == nil) {
			t.Fatalf("accept/reject disagreement: Parse=%v Reader=%v", perr, serr)
		}
		if perr != nil {
			return
		}
		if d.Reference != ref {
			t.Fatalf("reference disagreement: %g vs %g", d.Reference, ref)
		}
		if len(d.Samples) != len(streamed) {
			t.Fatalf("sample count disagreement: %d vs %d", len(d.Samples), len(streamed))
		}
		last := math.Inf(-1)
		for i, s := range d.Samples {
			if s.Omega != streamed[i].Omega || !bytes.Equal(complexBits(s.H.Data), complexBits(streamed[i].H.Data)) {
				t.Fatalf("sample %d differs between buffered and streaming paths", i)
			}
			// Invariants: strictly increasing finite frequencies, square
			// finite matrices of the requested size.
			if !(s.Omega > last) || math.IsInf(s.Omega, 0) {
				t.Fatalf("sample %d: frequency %g not strictly increasing/finite", i, s.Omega)
			}
			last = s.Omega
			if s.H.Rows != ports || s.H.Cols != ports {
				t.Fatalf("sample %d: %d×%d matrix for %d ports", i, s.H.Rows, s.H.Cols, ports)
			}
			for _, v := range s.H.Data {
				if math.IsNaN(real(v)) || math.IsNaN(imag(v)) || cmplx.IsInf(v) {
					t.Fatalf("sample %d: non-finite entry %v", i, v)
				}
			}
		}
	})
}

// complexBits views a complex slice as raw bytes for exact comparison.
func complexBits(v []complex128) []byte {
	out := make([]byte, 0, 16*len(v))
	for _, c := range v {
		r, i := math.Float64bits(real(c)), math.Float64bits(imag(c))
		for s := 0; s < 64; s += 8 {
			out = append(out, byte(r>>s), byte(i>>s))
		}
	}
	return out
}

// FuzzReader hammers the streaming reader alone: errors must be positioned
// *ParseErrors within the input's bounds (or io.EOF / the underlying
// error), must be sticky, and the reader must terminate on every input.
func FuzzReader(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte, pb byte) {
		// Identity on 1–6 so every seed parses at its declared port count.
		ports := (int(pb)+5)%6 + 1
		rd, err := NewReader(bytes.NewReader(data), ports)
		if err != nil {
			checkPositioned(t, err, len(data))
			return
		}
		n := 0
		for {
			s, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				checkPositioned(t, err, len(data))
				// Sticky: the identical error again, no further samples.
				if _, err2 := rd.Next(); err2 == nil || err2.Error() != err.Error() {
					t.Fatalf("error not sticky: %v then %v", err, err2)
				}
				return
			}
			n++
			if s.H.Rows != ports || s.H.Cols != ports {
				t.Fatalf("sample %d: wrong shape", n)
			}
		}
		if rd.Samples() != n {
			t.Fatalf("Samples() = %d after %d samples", rd.Samples(), n)
		}
	})
}

func checkPositioned(t *testing.T, err error, inputLen int) {
	t.Helper()
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v (%T) is not a *ParseError", err, err)
	}
	if pe.Line < 1 || pe.Byte < 0 || pe.Byte > int64(inputLen) {
		t.Fatalf("error position out of bounds: line %d byte %d (input %d bytes): %v",
			pe.Line, pe.Byte, inputLen, err)
	}
}
