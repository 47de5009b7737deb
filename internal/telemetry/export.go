package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
)

// WriteJSONL exports events as one JSON object per line: the Event
// type's own JSON form. It is deterministic byte-for-byte for a given
// event slice (field order is fixed by the struct, floats use Go's
// shortest-exact formatting). The Chrome trace-event and Prometheus
// encoders live in internal/obsv.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}
