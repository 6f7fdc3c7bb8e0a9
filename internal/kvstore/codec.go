// Wire encoding of command batches for dissemination — shared by the
// simulated cluster and the live one (internal/livekv): a uvarint entry
// count, then per entry the session identity, the op tag, and the
// length-prefixed key/value strings.

package kvstore

import (
	"encoding/binary"
	"fmt"

	"heardof/internal/live"
)

// maxString bounds one decoded key or value.
const maxString = 1 << 16

// Codec implements live.BatchCodec for commands.
type Codec struct{}

// AppendEntries implements live.BatchCodec.
func (Codec) AppendEntries(dst []byte, entries []live.Entry[Command]) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for _, e := range entries {
		dst = binary.AppendUvarint(dst, e.Client)
		dst = binary.AppendUvarint(dst, e.Seq)
		dst = append(dst, byte(e.Cmd.Op))
		dst = binary.AppendUvarint(dst, uint64(len(e.Cmd.Key)))
		dst = append(dst, e.Cmd.Key...)
		dst = binary.AppendUvarint(dst, uint64(len(e.Cmd.Value)))
		dst = append(dst, e.Cmd.Value...)
	}
	return dst
}

// DecodeEntries implements live.BatchCodec.
func (Codec) DecodeEntries(src []byte) ([]live.Entry[Command], error) {
	str := func() (string, error) {
		l, n := binary.Uvarint(src)
		if n <= 0 || l > maxString || uint64(len(src)-n) < l {
			return "", fmt.Errorf("kvstore: truncated string")
		}
		s := string(src[n : n+int(l)])
		src = src[n+int(l):]
		return s, nil
	}
	count, n := binary.Uvarint(src)
	if n <= 0 || count > 1<<16 {
		return nil, fmt.Errorf("kvstore: bad batch entry count")
	}
	src = src[n:]
	entries := make([]live.Entry[Command], 0, count)
	for i := uint64(0); i < count; i++ {
		var e live.Entry[Command]
		var n int
		if e.Client, n = binary.Uvarint(src); n <= 0 {
			return nil, fmt.Errorf("kvstore: truncated client id")
		}
		src = src[n:]
		if e.Seq, n = binary.Uvarint(src); n <= 0 || e.Seq == 0 {
			return nil, fmt.Errorf("kvstore: bad sequence number")
		}
		src = src[n:]
		if len(src) < 1 {
			return nil, fmt.Errorf("kvstore: truncated op")
		}
		op := Op(src[0])
		if op < OpPut || op > OpGet {
			return nil, fmt.Errorf("kvstore: unknown op %d", op)
		}
		e.Cmd.Op = op
		src = src[1:]
		var err error
		if e.Cmd.Key, err = str(); err != nil {
			return nil, err
		}
		if e.Cmd.Value, err = str(); err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	return entries, nil
}
