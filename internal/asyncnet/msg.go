package asyncnet

import (
	"encoding/binary"
	"math"

	"repro/internal/cluster"
	"repro/internal/protocol"
	"repro/internal/wire"
)

// This file is the wire format of the runtime's messages, following the
// replog/viewwire discipline: a versioned binary frame with a strict
// decoder over the shared wire.Reader — truncations, hostile counts, out-of-range values and
// trailing bytes are errors, never panics or unbounded allocations.
// The transport round-trips every message through this codec before
// delivery, so the encoding is on the hot path of every simulated
// exchange, not test-only decoration.
//
//	magic "AN" | format version (1) | kind | fixed field sequence
//
// Every field is encoded unconditionally in a fixed order regardless of
// kind, which keeps the frame trivially canonical for the fields it
// carries: signed fields as zigzag varints, unsigned as uvarints,
// floats as 8 little-endian bytes of their IEEE bits, bools as a single
// 0/1 byte (the decoder rejects anything else), slices as a uvarint
// length followed by the elements.

// MsgKind discriminates runtime messages.
type MsgKind byte

const (
	// KindStart kicks off the coordinator; scheduler-local, never on
	// the transport.
	KindStart MsgKind = 1
	// KindTimer is the coordinator's round deadline; scheduler-local.
	KindTimer MsgKind = 2
	// KindBaseline tells a representative a new period began and the
	// drift baselines were snapshotted.
	KindBaseline MsgKind = 3
	// KindRoundStart opens a round: it names the round's
	// representatives and the empty slots at round start.
	KindRoundStart MsgKind = 4
	// KindAnnounce is a representative's phase-1 broadcast — its
	// cluster's best relocation request, or a bare cid announcement
	// when HasRequest is false.
	KindAnnounce MsgKind = 5
	// KindGrant submits a self-granted relocation for application.
	KindGrant MsgKind = 6
	// KindGrantNotify informs the target cluster's representative of a
	// granted move (coordination traffic; carries no state).
	KindGrantNotify MsgKind = 7
	// KindRoundDone reports a representative's round completion.
	KindRoundDone MsgKind = 8
)

const kindMax = KindRoundDone

// Req is a relocation request as carried on the wire: a
// protocol.Request (a NewCluster request's To is cluster.None until the
// grant phase resolves it) plus the size of the requesting cluster at
// decide time, which a representative's grant simulation needs to track
// slots emptied mid-round. Peer, From and To travel as 32-bit values.
type Req struct {
	protocol.Request
	// FromSize is the size of the From cluster at decide time.
	FromSize int32
}

// Message is one runtime message.
type Message struct {
	Kind     MsgKind
	From, To int32 // actor IDs (0 = coordinator, cid+1 = representative)
	Round    uint32

	// HasRequest and Req are meaningful for KindAnnounce and KindGrant.
	HasRequest bool
	Req        Req

	// Reps and Empties are meaningful for KindRoundStart: the cluster
	// IDs of the round's representatives and the empty slots at round
	// start, both ascending.
	Reps    []int32
	Empties []int32

	// HadRequest and Granted are meaningful for KindRoundDone.
	HadRequest bool
	Granted    bool
}

// WireVersion is the framing version; the decoder rejects others.
const WireVersion = 1

// msgMagic opens every message.
const msgMagic = "AN"

// maxSlice bounds the Reps/Empties lengths the decoder accepts.
const maxSlice = 1 << 20

// AppendMessage encodes m onto dst.
func AppendMessage(dst []byte, m Message) []byte {
	dst = wire.AppendHeader(dst, msgMagic, WireVersion, byte(m.Kind))
	dst = binary.AppendVarint(dst, int64(m.From))
	dst = binary.AppendVarint(dst, int64(m.To))
	dst = binary.AppendUvarint(dst, uint64(m.Round))
	dst = appendBool(dst, m.HasRequest)
	dst = binary.AppendVarint(dst, int64(m.Req.Peer))
	dst = binary.AppendVarint(dst, int64(m.Req.From))
	dst = binary.AppendVarint(dst, int64(m.Req.To))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m.Req.Gain))
	dst = appendBool(dst, m.Req.NewCluster)
	dst = binary.AppendUvarint(dst, uint64(m.Req.Gen))
	dst = binary.AppendVarint(dst, int64(m.Req.FromSize))
	dst = binary.AppendUvarint(dst, uint64(len(m.Reps)))
	for _, c := range m.Reps {
		dst = binary.AppendVarint(dst, int64(c))
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.Empties)))
	for _, c := range m.Empties {
		dst = binary.AppendVarint(dst, int64(c))
	}
	dst = appendBool(dst, m.HadRequest)
	dst = appendBool(dst, m.Granted)
	return dst
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// DecodeMessage parses exactly one message; trailing bytes are an
// error.
func DecodeMessage(data []byte) (Message, error) {
	r := wire.NewReader("asyncnet", data)
	m := Message{Kind: MsgKind(r.Header(msgMagic, WireVersion))}
	if m.Kind == 0 || m.Kind > kindMax {
		r.Failf("unknown message kind %d", m.Kind)
	}
	m.From = r.Int32()
	m.To = r.Int32()
	m.Round = r.Uint32()
	m.HasRequest = r.Bool()
	m.Req.Peer = int(r.Int32())
	m.Req.From = cluster.CID(r.Int32())
	m.Req.To = cluster.CID(r.Int32())
	m.Req.Gain = r.Float64()
	m.Req.NewCluster = r.Bool()
	m.Req.Gen = r.Uint32()
	m.Req.FromSize = r.Int32()
	m.Reps = cidSlice(&r)
	m.Empties = cidSlice(&r)
	m.HadRequest = r.Bool()
	m.Granted = r.Bool()
	if err := r.Finish(); err != nil {
		return Message{}, err
	}
	return m, nil
}

// cidSlice reads a counted list of zigzag varints; an empty list is nil.
func cidSlice(r *wire.Reader) []int32 {
	// Every element occupies at least one encoded byte.
	n := r.Count(1, "slice")
	if n > maxSlice {
		r.Failf("slice length %d exceeds limit", n)
	}
	if n == 0 || r.Err() != nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = r.Int32()
	}
	return out
}
