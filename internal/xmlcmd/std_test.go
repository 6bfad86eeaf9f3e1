package xmlcmd

import (
	"encoding/xml"
	"fmt"
)

// StdEncode is the encoding/xml implementation Encode wrapped before the
// hand-rolled codec existed. It survives, in the tests only, as the
// reference the corpus-equivalence test, the numeric-parameter tests and
// FuzzCodecDiff compare the codec against.
func StdEncode(m *Message) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	b, err := xml.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("xmlcmd: marshal: %w", err)
	}
	if len(b) > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	return b, nil
}

// StdDecode is the encoding/xml counterpart of StdEncode.
func StdDecode(b []byte) (*Message, error) {
	if len(b) > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	var m Message
	if err := xml.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("xmlcmd: unmarshal: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}
