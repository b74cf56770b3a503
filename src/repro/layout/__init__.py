"""Byte-accurate on-storage index layout (paper Sec. 5.1-5.3, Figure 9).

The index consists of, per (search radius, compound hash):

- a *hash table*: a flat array of 8-byte bucket addresses indexed by the
  low ``u`` bits of the 32-bit compound hash value, and
- *buckets*: linked lists of fixed-size blocks, each holding a 16-byte
  header (8-byte next-block address, 2-byte entry count, 6 bytes
  reserved) followed by 5-byte object infos (object ID + fingerprint).

Everything here produces and parses real bytes in a
:class:`~repro.storage.blockstore.BlockStore`.
"""

from repro.layout.bucket import (
    BLOCK_HEADER_SIZE,
    DEFAULT_BLOCK_SIZE,
    NULL_ADDRESS,
    BucketBlock,
    decode_block,
    decode_blocks,
    encode_bucket,
    entries_per_block,
    read_bucket,
)
from repro.layout.hash_table import OnStorageHashTable
from repro.layout.object_info import OBJECT_INFO_SIZE, ObjectInfoCodec
from repro.layout.builder import BuiltIndex, IndexBuilder, TableHandle

__all__ = [
    "BLOCK_HEADER_SIZE",
    "DEFAULT_BLOCK_SIZE",
    "NULL_ADDRESS",
    "BucketBlock",
    "decode_block",
    "decode_blocks",
    "encode_bucket",
    "entries_per_block",
    "read_bucket",
    "OnStorageHashTable",
    "OBJECT_INFO_SIZE",
    "ObjectInfoCodec",
    "IndexBuilder",
    "BuiltIndex",
    "TableHandle",
]
