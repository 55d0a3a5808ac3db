package types

// Codec entries for the state-transfer catalog. These messages carry the
// largest payloads on the wire (snapshot chunks, block ranges), and their
// counts and lengths arrive before authentication — every slice allocation
// below is bounded by what the received buffer could physically hold, the
// same rule Proposals() and batches follow.

// minEncodedBlockLen is the floor of one ledger.EncodeBlock payload
// (version + height + two hashes + proof fixed part + signer count + batch
// count): the BlockRange decoder divides by it (plus the 4-byte length
// prefix) so a forged block count cannot amplify a small frame into a huge
// allocation.
const minEncodedBlockLen = 1 + 8 + 32 + 32 + 2 + 8 + 8 + 32 + 2 + 4

// Blobs reads a u32-counted sequence of u32-length-prefixed byte strings,
// bounding the count by the buffer-derived floor of minLen bytes per
// element.
func (r *Reader) Blobs(minLen int) [][]byte {
	n := r.Count(4 + minLen)
	if n == 0 {
		return nil
	}
	out := make([][]byte, n)
	for i := range out {
		out[i] = r.Blob()
	}
	if r.err != nil {
		return nil
	}
	return out
}

func appendBlobs(buf []byte, bs [][]byte) []byte {
	buf = appendU32(buf, uint32(len(bs)))
	for _, b := range bs {
		buf = AppendBlob(buf, b)
	}
	return buf
}

func init() {
	registerCodec(MsgStateOffer,
		func(buf []byte, m Message) []byte {
			v := m.(*StateOffer)
			buf = appendU16(buf, uint16(v.Inst))
			buf = appendU16(buf, uint16(v.Replica))
			buf = appendU64(buf, v.SnapHeight)
			buf = appendU64(buf, v.SnapSize)
			buf = appendU32(buf, v.ChunkBytes)
			buf = append(buf, v.SnapAppHash[:]...)
			buf = append(buf, v.SnapHeadHash[:]...)
			buf = append(buf, v.SnapStateDigest[:]...)
			buf = appendU64(buf, v.TxnCount)
			buf = AppendBlob(buf, v.SnapSyncPoint)
			buf = appendU64(buf, v.Height)
			buf = append(buf, v.HeadHash[:]...)
			return AppendBlob(buf, v.SyncPoint)
		},
		func(r *Reader) Message {
			return &StateOffer{
				Header:          Header{Inst: InstanceID(r.U16())},
				Replica:         ReplicaID(r.U16()),
				SnapHeight:      r.U64(),
				SnapSize:        r.U64(),
				ChunkBytes:      r.U32(),
				SnapAppHash:     r.Digest(),
				SnapHeadHash:    r.Digest(),
				SnapStateDigest: r.Digest(),
				TxnCount:        r.U64(),
				SnapSyncPoint:   r.Blob(),
				Height:          r.U64(),
				HeadHash:        r.Digest(),
				SyncPoint:       r.Blob(),
			}
		})

	registerCodec(MsgSnapshotRequest,
		func(buf []byte, m Message) []byte {
			v := m.(*SnapshotRequest)
			buf = appendU16(buf, uint16(v.Inst))
			buf = appendU16(buf, uint16(v.Replica))
			buf = appendU64(buf, v.Height)
			return appendU32(buf, v.Chunk)
		},
		func(r *Reader) Message {
			return &SnapshotRequest{
				Header:  Header{Inst: InstanceID(r.U16())},
				Replica: ReplicaID(r.U16()),
				Height:  r.U64(),
				Chunk:   r.U32(),
			}
		})

	registerCodec(MsgSnapshotChunk,
		func(buf []byte, m Message) []byte {
			v := m.(*SnapshotChunk)
			buf = appendU16(buf, uint16(v.Inst))
			buf = appendU16(buf, uint16(v.Replica))
			buf = appendU64(buf, v.Height)
			buf = appendU32(buf, v.Chunk)
			buf = appendU32(buf, v.Of)
			return AppendBlob(buf, v.Data)
		},
		func(r *Reader) Message {
			return &SnapshotChunk{
				Header:  Header{Inst: InstanceID(r.U16())},
				Replica: ReplicaID(r.U16()),
				Height:  r.U64(),
				Chunk:   r.U32(),
				Of:      r.U32(),
				Data:    r.Blob(),
			}
		})

	registerCodec(MsgBlockRangeRequest,
		func(buf []byte, m Message) []byte {
			v := m.(*BlockRangeRequest)
			buf = appendU16(buf, uint16(v.Inst))
			buf = appendU16(buf, uint16(v.Replica))
			buf = appendU64(buf, v.From)
			return appendU64(buf, v.To)
		},
		func(r *Reader) Message {
			return &BlockRangeRequest{
				Header:  Header{Inst: InstanceID(r.U16())},
				Replica: ReplicaID(r.U16()),
				From:    r.U64(),
				To:      r.U64(),
			}
		})

	registerCodec(MsgBlockRange,
		func(buf []byte, m Message) []byte {
			v := m.(*BlockRange)
			buf = appendU16(buf, uint16(v.Inst))
			buf = appendU16(buf, uint16(v.Replica))
			buf = appendU64(buf, v.From)
			return appendBlobs(buf, v.Blocks)
		},
		func(r *Reader) Message {
			return &BlockRange{
				Header:  Header{Inst: InstanceID(r.U16())},
				Replica: ReplicaID(r.U16()),
				From:    r.U64(),
				Blocks:  r.Blobs(minEncodedBlockLen),
			}
		})
}
