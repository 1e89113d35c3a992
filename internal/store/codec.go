package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/passivity"
	"repro/internal/statespace"
)

// Record payload type tags (first payload byte). The tag space is append-
// only: a tag is never reused or renumbered, so an old log replays under a
// newer binary.
const (
	recJobStart          = 1 // job spec + model snapshot, written before submission
	recCoreCheckpoint    = 2 // one core.Checkpoint (eigensolver shift boundary)
	recEnforceCheckpoint = 3 // one passivity.EnforceCheckpoint (iteration boundary)
	recEvent             = 4 // one SSE event, seq-dense per job
	recResumeMarker      = 5 // recovery fence: the seq/iter the resumed run continues from
	recTerminal          = 6 // job reached a terminal state; final document snapshot
)

// enc is a little-endian append-only payload encoder. All integers are
// varints (zig-zag for signed), floats are IEEE-754 bit images — float
// identity survives the round trip exactly, which the resume bit-identity
// guarantee depends on.
type enc struct {
	buf []byte
}

func (e *enc) u8(v byte)     { e.buf = append(e.buf, v) }
func (e *enc) uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}
func (e *enc) varint(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}
func (e *enc) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}
func (e *enc) c128(v complex128) {
	e.f64(real(v))
	e.f64(imag(v))
}
func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *enc) bytes(b []byte) {
	e.uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}
func (e *enc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *enc) f64s(v []float64) {
	e.uvarint(uint64(len(v)))
	for _, x := range v {
		e.f64(x)
	}
}

// dec is the matching payload decoder. It never panics on malformed input:
// every read checks bounds, element counts are validated against the bytes
// actually remaining before any allocation, and the first failure latches
// an error that subsequent reads pass through (callers check err once at
// the end).
type dec struct {
	data []byte
	off  int
	err  error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("byte %d: "+format, append([]any{d.off}, args...)...)
	}
}

func (d *dec) u8() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.data) {
		d.fail("truncated payload")
		return 0
	}
	v := d.data[d.off]
	d.off++
	return v
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *dec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return v
}

// count reads an element count and rejects it unless elemSize*count bytes
// could still follow — the allocation guard that keeps a hostile length
// prefix from allocating gigabytes before the bounds check would fail.
func (d *dec) count(elemSize int) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if rem := len(d.data) - d.off; elemSize > 0 && v > uint64(rem/elemSize) {
		d.fail("element count %d exceeds remaining payload", v)
		return 0
	}
	return int(v)
}

func (d *dec) f64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.data) {
		d.fail("truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.off:]))
	d.off += 8
	return v
}

func (d *dec) c128() complex128 {
	re := d.f64()
	im := d.f64()
	return complex(re, im)
}

func (d *dec) bool() bool { return d.u8() != 0 }

func (d *dec) bytes() []byte {
	n := d.count(1)
	if d.err != nil {
		return nil
	}
	v := append([]byte(nil), d.data[d.off:d.off+n]...)
	d.off += n
	return v
}

func (d *dec) str() string {
	n := d.count(1)
	if d.err != nil {
		return ""
	}
	v := string(d.data[d.off : d.off+n])
	d.off += n
	return v
}

func (d *dec) f64s() []float64 {
	n := d.count(8)
	if d.err != nil {
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = d.f64()
	}
	return v
}

// finish fails if decodable bytes remain: a CRC-valid payload with trailing
// garbage means an encoder/decoder mismatch, not a torn write.
func (d *dec) finish() error {
	if d.err == nil && d.off != len(d.data) {
		d.fail("%d trailing bytes after record", len(d.data)-d.off)
	}
	return d.err
}

// --- model codec -----------------------------------------------------------

func encodeModel(e *enc, m *statespace.Model) {
	e.uvarint(uint64(m.P))
	encodeDense(e, m.D)
	e.uvarint(uint64(len(m.Cols)))
	for k := range m.Cols {
		col := &m.Cols[k]
		e.uvarint(uint64(len(col.Blocks)))
		for _, b := range col.Blocks {
			e.uvarint(uint64(b.Size))
			e.f64(b.Sigma)
			e.f64(b.Omega)
			e.f64(b.B1)
			e.f64(b.B2)
		}
		encodeDense(e, col.C)
	}
}

func decodeModel(d *dec) *statespace.Model {
	m := &statespace.Model{P: int(d.uvarint())}
	m.D = decodeDense(d)
	nc := d.count(1)
	if d.err != nil {
		return nil
	}
	m.Cols = make([]statespace.Column, nc)
	for k := range m.Cols {
		nb := d.count(1)
		if d.err != nil {
			return nil
		}
		m.Cols[k].Blocks = make([]statespace.Block, nb)
		for i := range m.Cols[k].Blocks {
			b := &m.Cols[k].Blocks[i]
			b.Size = int(d.uvarint())
			b.Sigma = d.f64()
			b.Omega = d.f64()
			b.B1 = d.f64()
			b.B2 = d.f64()
		}
		m.Cols[k].C = decodeDense(d)
	}
	if d.err != nil {
		return nil
	}
	if err := m.Validate(); err != nil {
		d.fail("decoded model invalid: %v", err)
		return nil
	}
	return m
}

func encodeDense(e *enc, m *mat.Dense) {
	e.uvarint(uint64(m.Rows))
	e.uvarint(uint64(m.Cols))
	for _, v := range m.Data {
		e.f64(v)
	}
}

func decodeDense(d *dec) *mat.Dense {
	rows := d.count(1)
	cols := d.count(1)
	if d.err != nil {
		return nil
	}
	if rows > 0 && cols > (len(d.data)-d.off)/(8*rows) {
		d.fail("dense %d×%d exceeds remaining payload", rows, cols)
		return nil
	}
	m := mat.NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = d.f64()
	}
	return m
}

// --- checkpoint codecs -----------------------------------------------------

func encodeCoreCheckpoint(e *enc, ck *core.Checkpoint) {
	e.varint(int64(ck.Seq))
	e.f64(ck.OmegaMax)
	e.varint(int64(ck.NextID))
	e.varint(int64(ck.Completed))
	e.varint(int64(ck.TentativeDeleted))
	e.bool(ck.Out != nil)
	if ck.Out != nil {
		encodeShift(e, ck.Out)
	}
	e.uvarint(uint64(len(ck.Tentative)))
	for i := range ck.Tentative {
		iv := &ck.Tentative[i]
		e.varint(int64(iv.ID))
		e.f64(iv.Lo)
		e.f64(iv.Hi)
		e.f64(iv.Shift)
		e.bool(iv.EdgeLeft)
		e.bool(iv.EdgeRite)
	}
}

func decodeCoreCheckpoint(d *dec) core.Checkpoint {
	ck := core.Checkpoint{
		Seq:              int(d.varint()),
		OmegaMax:         d.f64(),
		NextID:           int(d.varint()),
		Completed:        int(d.varint()),
		TentativeDeleted: int(d.varint()),
	}
	if d.bool() {
		out := decodeShift(d)
		ck.Out = &out
	}
	n := d.count(1)
	if d.err != nil {
		return ck
	}
	ck.Tentative = make([]core.IntervalCheckpoint, n)
	for i := range ck.Tentative {
		iv := &ck.Tentative[i]
		iv.ID = int(d.varint())
		iv.Lo = d.f64()
		iv.Hi = d.f64()
		iv.Shift = d.f64()
		iv.EdgeLeft = d.bool()
		iv.EdgeRite = d.bool()
	}
	return ck
}

func encodeShift(e *enc, s *core.ShiftCheckpoint) {
	e.f64(s.Omega)
	e.f64(s.Radius)
	e.varint(int64(s.Worker))
	e.uvarint(uint64(len(s.Eigenvalues)))
	for _, z := range s.Eigenvalues {
		e.c128(z)
	}
	e.f64s(s.ResidualsM)
	e.varint(int64(s.Restarts))
	e.varint(int64(s.OpApplies))
}

func decodeShift(d *dec) core.ShiftCheckpoint {
	s := core.ShiftCheckpoint{
		Omega:  d.f64(),
		Radius: d.f64(),
		Worker: int(d.varint()),
	}
	n := d.count(16)
	if d.err != nil {
		return s
	}
	s.Eigenvalues = make([]complex128, n)
	for i := range s.Eigenvalues {
		s.Eigenvalues[i] = d.c128()
	}
	s.ResidualsM = d.f64s()
	s.Restarts = int(d.varint())
	s.OpApplies = int(d.varint())
	return s
}

func encodeEnforceCheckpoint(e *enc, ck *passivity.EnforceCheckpoint) {
	e.varint(int64(ck.Iter))
	e.f64(ck.Cumulative)
	e.f64(ck.CarriedOmegaMax)
	e.bool(ck.Carried)
	e.f64(ck.InitialWorst)
	e.varint(int64(ck.SolverTotals.ShiftsProcessed))
	e.varint(int64(ck.SolverTotals.TentativeDeleted))
	e.varint(int64(ck.SolverTotals.Restarts))
	e.varint(int64(ck.SolverTotals.OpApplies))
	e.varint(int64(ck.SolverTotals.Elapsed))
	// Retired warm-start seed slot: always written empty so the record
	// keeps the byte layout that existing logs were written in.
	e.f64s(nil)
	e.uvarint(uint64(len(ck.Residues)))
	for _, r := range ck.Residues {
		e.f64s(r)
	}
}

func decodeEnforceCheckpoint(d *dec) passivity.EnforceCheckpoint {
	ck := passivity.EnforceCheckpoint{
		Iter:            int(d.varint()),
		Cumulative:      d.f64(),
		CarriedOmegaMax: d.f64(),
		Carried:         d.bool(),
		InitialWorst:    d.f64(),
	}
	ck.SolverTotals = core.Stats{
		ShiftsProcessed:  int(d.varint()),
		TentativeDeleted: int(d.varint()),
		Restarts:         int(d.varint()),
		OpApplies:        int(d.varint()),
		Elapsed:          time.Duration(d.varint()),
	}
	// Logs written before enforcement became cold-only carry the previous
	// iteration's crossings here as warm-start seeds; nothing reads them.
	_ = d.f64s()
	n := d.count(1)
	if d.err != nil {
		return ck
	}
	ck.Residues = make([][]float64, n)
	for i := range ck.Residues {
		ck.Residues[i] = d.f64s()
	}
	return ck
}
