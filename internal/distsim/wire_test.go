package distsim

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"time"

	"anycastcdn/internal/experiments"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/testutil"
	"anycastcdn/internal/topology"
)

// countFrame is an encoded section whose element count is n, followed by
// tail bytes of payload.
func countFrame(n uint64, tail int) []byte {
	return append(binary.LittleEndian.AppendUint64(nil, n), make([]byte, tail)...)
}

// TestDecodeMatrixCountOverflow: a cell count whose byte size wraps to
// the payload length (8·2^61 ≡ 0) must be rejected, not allocated.
func TestDecodeMatrixCountOverflow(t *testing.T) {
	for _, n := range []uint64{1 << 61, 1<<61 + 1} {
		if _, err := decodeMatrix(nil, countFrame(n, 8)); err == nil {
			t.Errorf("count %d accepted", n)
		}
	}
	if _, err := decodeMatrix(nil, countFrame(1, 8)); err != nil {
		t.Errorf("valid one-cell matrix rejected: %v", err)
	}
}

// TestDecodeSiteMapCountOverflow: a pair count whose byte size wraps to
// the payload length (16·2^60 ≡ 0) must be rejected before the loop
// indexes past the payload.
func TestDecodeSiteMapCountOverflow(t *testing.T) {
	m := map[topology.SiteID]float64{}
	for _, n := range []uint64{1 << 60, 1<<60 + 1} {
		if err := decodeSiteMap(m, countFrame(n, 16), true); err == nil {
			t.Errorf("count %d accepted", n)
		}
	}
	if err := decodeSiteMap(m, countFrame(1, 16), false); err != nil || len(m) != 1 {
		t.Errorf("valid one-pair map: err %v, %d entries", err, len(m))
	}
}

// TestMergeDayUtilizationCountOverflow: the utilization section's site
// count is checked by division, so 33·n cannot wrap to the section size.
func TestMergeDayUtilizationCountOverflow(t *testing.T) {
	cfg := testutil.TinyConfig(5)
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(w.Population.Clients)
	obs, err := experiments.NewShardObserver(cfg, w, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	var frame []byte
	err = sim.StreamWorld(cfg, w, func(d sim.DayResult) error {
		if d.Day == 1 { // a bare-header day keeps the frame small
			frame = obs.AppendDay(d, nil)
		} else {
			obs.AppendDay(d, nil)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	c := &coordinator{bounds: [][2]int{{0, n}}}
	suite := experiments.NewStreamSuite(cfg, w)
	payload := binary.LittleEndian.AppendUint64(nil, uint64(len(frame)))
	payload = append(payload, frame...)
	// 33 · 0x0F83E0F83E0F83E1 ≡ 1 (mod 2^64): a one-byte section.
	bad := append(append([]byte{}, payload...), countFrame(0x0F83E0F83E0F83E1, 1)...)
	if _, err := c.mergeDay(suite, 1, 0, bad, nil); err == nil {
		t.Error("wrapped utilization count accepted")
	}
	if _, err := c.mergeDay(suite, 1, 0, append(payload, countFrame(0, 0)...), nil); err != nil {
		t.Errorf("valid empty utilization section rejected: %v", err)
	}
}

// FuzzDecodeMatrix: any payload decodes or errors; nothing panics or
// allocates past the payload's own size.
func FuzzDecodeMatrix(f *testing.F) {
	f.Add(appendMatrix(nil, []float64{1, 2.5, 0}))
	f.Add(countFrame(1<<61, 8))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeMatrix(nil, data)
		if err == nil && 8*len(m)+8 != len(data) {
			t.Fatalf("%d cells decoded from %d bytes", len(m), len(data))
		}
	})
}

// FuzzDecodeSiteMap: any payload decodes or errors, in both modes.
func FuzzDecodeSiteMap(f *testing.F) {
	enc, _ := appendSiteMap(nil, map[topology.SiteID]float64{3: 7, 1: 2}, nil)
	f.Add(enc, true)
	f.Add(countFrame(1<<60, 16), false)
	f.Fuzz(func(t *testing.T, data []byte, add bool) {
		_ = decodeSiteMap(map[topology.SiteID]float64{}, data, add)
	})
}

// byteConn is a net.Conn that reads from a fixed byte string; only the
// methods frameConn.read uses are implemented.
type byteConn struct {
	net.Conn
	r *bytes.Reader
}

func (c byteConn) Read(p []byte) (int, error)      { return c.r.Read(p) }
func (c byteConn) SetReadDeadline(time.Time) error { return nil }

// newByteFrameConn frames a connection that delivers data, then EOF.
func newByteFrameConn(data []byte) *frameConn {
	return newFrameConn(byteConn{r: bytes.NewReader(data)})
}

// frameHeader is a frame header claiming an n-byte payload of type t.
func frameHeader(n uint32, t frameType) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, n), byte(t))
}

// TestFrameReadCorruptLengthFailsSmall: a header claiming the protocol's
// maximum payload, then EOF, must fail without allocating anywhere near
// the size it claims.
func TestFrameReadCorruptLengthFailsSmall(t *testing.T) {
	fc := newByteFrameConn(frameHeader(maxFramePayload, frameDay))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, _, err := fc.read(time.Time{})
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("read of a truncated maximum-size frame succeeded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("failed read allocated %d bytes, want < 1 MiB", got)
	}
}

// TestFrameReadRoundTrip: frames written by write come back intact,
// including one larger than the read step, and a buffer that already fits
// the next frame is reused.
func TestFrameReadRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	big := make([]byte, 3*frameReadStep+17)
	for i := range big {
		big[i] = byte(i * 7)
	}
	payloads := [][]byte{{}, []byte("hello"), big, []byte("small after big")}
	go func() {
		w := newFrameConn(a)
		for i, p := range payloads {
			if err := w.write(frameType(i+1), p, time.Now().Add(10*time.Second)); err != nil {
				return
			}
		}
	}()
	r := newFrameConn(b)
	var bigCap int
	for i, want := range payloads {
		ft, got, err := r.read(time.Now().Add(10 * time.Second))
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if ft != frameType(i+1) || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: type %d, %d bytes; want type %d, %d bytes", i, ft, len(got), i+1, len(want))
		}
		if i == 2 {
			bigCap = cap(r.rbuf)
		}
	}
	if cap(r.rbuf) != bigCap {
		t.Fatalf("read buffer capacity %d after a small frame, want the reused %d", cap(r.rbuf), bigCap)
	}
}

// FuzzFrameRead: any byte stream yields well-formed frames until an
// error; nothing panics, and the read buffer never grows far past the
// bytes actually received.
func FuzzFrameRead(f *testing.F) {
	f.Add(append(frameHeader(5, frameDay), "hello"...))
	f.Add(frameHeader(maxFramePayload, frameDay))
	f.Add(frameHeader(maxFramePayload+1, frameDay))
	f.Add(append(append(frameHeader(0, frameHeartbeat), frameHeader(3, frameError)...), "bad"...))
	f.Fuzz(func(t *testing.T, data []byte) {
		fc := newByteFrameConn(data)
		consumed := 0
		for {
			_, payload, err := fc.read(time.Time{})
			if err != nil {
				break
			}
			consumed += 5 + len(payload)
			if consumed > len(data) {
				t.Fatalf("frames total %d bytes from a %d-byte stream", consumed, len(data))
			}
		}
		if c := cap(fc.rbuf); c > 2*len(data)+2*frameReadStep {
			t.Fatalf("read buffer grew to %d bytes on a %d-byte stream", c, len(data))
		}
	})
}
