package rapid

// Stream construction helpers implementing the paper's input conventions
// (Section 3.2): streams begin with the reserved START_OF_INPUT symbol,
// and flattened arrays separate entries with it.

// FrameRecords flattens records into a device stream: a leading reserved
// separator, then each record followed by a separator. This is the
// "flattening of an array" encoding of Section 3.2.
func FrameRecords(records ...[]byte) []byte {
	n := 1
	for _, r := range records {
		n += len(r) + 1
	}
	out := make([]byte, 0, n)
	out = append(out, StartOfInput)
	for _, r := range records {
		out = append(out, r...)
		out = append(out, StartOfInput)
	}
	return out
}

// FrameStrings is FrameRecords for string records.
func FrameStrings(records ...string) []byte {
	bs := make([][]byte, len(records))
	for i, r := range records {
		bs[i] = []byte(r)
	}
	return FrameRecords(bs...)
}

// SplitRecords is the inverse of FrameRecords: it splits a stream on the
// reserved separator, dropping empty records, and returns each record with
// the stream offset of its first symbol.
func SplitRecords(stream []byte) (records [][]byte, offsets []int) {
	start := 0
	for i := 0; i <= len(stream); i++ {
		if i == len(stream) || stream[i] == StartOfInput {
			if i > start {
				records = append(records, stream[start:i])
				offsets = append(offsets, start)
			}
			start = i + 1
		}
	}
	return records, offsets
}
