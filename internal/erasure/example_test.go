package erasure_test

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/erasure"
)

// Example encodes data with Reed-Solomon (4 data + 2 parity blocks), loses
// two blocks, and reconstructs.
func Example() {
	rs, err := erasure.NewRS(4, 2)
	if err != nil {
		log.Fatal(err)
	}
	data := []byte("fault-tolerance in the network storage stack!!!!")
	blocks := erasure.Split(data, 4)
	parity, err := rs.Encode(blocks)
	if err != nil {
		log.Fatal(err)
	}

	// Any two blocks may vanish.
	survivors := [][]byte{nil, blocks[1], blocks[2], nil, parity[0], parity[1]}
	decoded, err := rs.Decode(survivors)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(bytes.Equal(bytes.Join(decoded, nil)[:len(data)], data))
	// Output:
	// true
}
