package asyncnet

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/protocol"
)

func sampleMessages() []Message {
	return []Message{
		{Kind: KindStart},
		{Kind: KindTimer, Round: 7},
		{Kind: KindBaseline, From: 0, To: 5},
		{Kind: KindRoundStart, From: 0, To: 3, Round: 2,
			Reps: []int32{0, 2, 9}, Empties: []int32{1, 3, 4}},
		{Kind: KindAnnounce, From: 3, To: 10, Round: 2, HasRequest: true,
			Req: Req{Request: protocol.Request{Peer: 17, From: 2, To: 9, Gain: 0.125, Gen: 3}, FromSize: 4}},
		{Kind: KindAnnounce, From: 3, To: 10, Round: 2}, // bare cid announce
		{Kind: KindGrant, From: 3, To: 0, Round: 2, HasRequest: true,
			Req: Req{Request: protocol.Request{Peer: 17, From: 2, To: -1, Gain: math.Inf(1), NewCluster: true, Gen: 1}, FromSize: 1}},
		{Kind: KindGrantNotify, From: 3, To: 10, Round: 2,
			Req: Req{Request: protocol.Request{Peer: 17, From: 2, To: 9, Gain: -0.5}}},
		{Kind: KindRoundDone, From: 3, To: 0, Round: 2, HadRequest: true, Granted: true},
	}
}

func TestMessageCodecRoundTrip(t *testing.T) {
	for _, m := range sampleMessages() {
		enc := AppendMessage(nil, m)
		dec, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("decode(%+v): %v", m, err)
		}
		if !reflect.DeepEqual(dec, m) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", dec, m)
		}
		// Re-encoding the decoded message is byte-identical: the
		// encoder is canonical for everything it emits.
		if re := AppendMessage(nil, dec); !reflect.DeepEqual(re, enc) {
			t.Fatalf("re-encode mismatch for %+v", m)
		}
	}
}

func TestMessageCodecRejectsHostileInput(t *testing.T) {
	good := AppendMessage(nil, sampleMessages()[3])
	cases := map[string][]byte{
		"empty":          {},
		"short header":   good[:3],
		"bad magic":      append([]byte{'X', 'N'}, good[2:]...),
		"bad version":    append([]byte{'A', 'N', 99}, good[3:]...),
		"bad kind zero":  append([]byte{'A', 'N', WireVersion, 0}, good[4:]...),
		"bad kind high":  append([]byte{'A', 'N', WireVersion, 200}, good[4:]...),
		"truncated body": good[:len(good)-2],
		"trailing bytes": append(append([]byte{}, good...), 0),
		// Header + a hostile slice count with no room for elements.
		"hostile count": append(append([]byte{}, good[:4]...),
			0, 0, 0, 0, // From, To, Round, HasRequest
			0, 0, 0, // Req.Peer/From/To
			0, 0, 0, 0, 0, 0, 0, 0, // Gain
			0, 0, 0, // NewCluster, Gen, FromSize
			0xff, 0xff, 0xff, 0x7f), // Reps length ~256M
	}
	for name, data := range cases {
		if _, err := DecodeMessage(data); err == nil {
			t.Errorf("%s: decoder accepted hostile input", name)
		}
	}
	// A bool byte outside {0,1} is rejected (keeps the encoding
	// canonical for bools).
	bad := append([]byte{}, good...)
	bad[len(bad)-1] = 2 // Granted flag
	if _, err := DecodeMessage(bad); err == nil {
		t.Error("decoder accepted bool byte 2")
	}
}
