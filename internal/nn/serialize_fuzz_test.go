package nn

import (
	"bufio"
	"bytes"
	"testing"
)

// FuzzUnmarshalNetwork feeds arbitrary bytes to the TMLN1 model decoder
// every device runs on install. It must reject malformed artifacts with an
// error, never a panic; an accepted artifact must re-marshal to exactly
// its input (the format is canonical, so registry digests are too); and
// the in-memory decoder must agree with the streaming one on what it
// accepts and on what it builds.
func FuzzUnmarshalNetwork(f *testing.F) {
	nets := []*Network{deltaFixtureNet(1), deltaFixtureNet(2)}
	for _, fx := range cloneFixtures(f) {
		nets = append(nets, fx.net)
	}
	for _, n := range nets {
		b, err := n.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		// Classic decoder traps: truncation, a trailing byte, a flipped
		// byte in the middle.
		f.Add(b[:len(b)/2])
		f.Add(append(append([]byte(nil), b...), 0))
		mut := append([]byte(nil), b...)
		mut[len(mut)/2] ^= 0xFF
		f.Add(mut)
	}
	f.Add([]byte(netMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		net, err := UnmarshalNetwork(data)
		streamed, serr := DecodeNetwork(bufio.NewReader(bytes.NewReader(data)))
		if (err == nil) != (serr == nil) {
			t.Fatalf("in-memory decode err=%v, streaming decode err=%v", err, serr)
		}
		if err != nil {
			return
		}
		out, err := net.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted network does not re-marshal: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatal("accepted artifact re-marshals to different bytes")
		}
		sout, err := streamed.MarshalBinary()
		if err != nil {
			t.Fatalf("stream-decoded network does not re-marshal: %v", err)
		}
		if !bytes.Equal(sout, out) {
			t.Fatal("in-memory and streaming decoders built different networks")
		}
	})
}

// TestUnmarshalNetworkRejectsNonCanonical covers what the fuzz target
// found: trailing bytes after the model were silently accepted, and a
// zero max-pool window or an out-of-range dropout probability panicked
// inside the layer constructors instead of failing the decode.
func TestUnmarshalNetworkRejectsNonCanonical(t *testing.T) {
	good := marshalOrDie(t, deltaFixtureNet(1))
	pool := NewMaxPool2D(2, 2)
	pool.K = 0
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"trailing byte", append(append([]byte(nil), good...), 0)},
		{"zero maxpool window", marshalOrDie(t, NewNetwork([]int{1, 4, 4}, pool))},
		{"dropout probability 1", marshalOrDie(t, NewNetwork([]int{4}, &Dropout{P: 1}))},
	} {
		if _, err := UnmarshalNetwork(c.data); err == nil {
			t.Errorf("%s: UnmarshalNetwork accepted it", c.name)
		}
		if _, err := DecodeNetwork(bytes.NewReader(c.data)); err == nil {
			t.Errorf("%s: DecodeNetwork accepted it", c.name)
		}
	}
}
