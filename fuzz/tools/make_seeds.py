#!/usr/bin/env python3
"""Regenerates the binary seed corpora under fuzz/corpus/.

The text corpora (http_request, query_parser, filter_list, url) are
hand-written files; this script owns the .adst wire-format seeds, which
are awkward to author by hand (varints, dictionary ids, count hints).
Run from the repo root:  python3 fuzz/tools/make_seeds.py
"""
import os
import struct

ROOT = os.path.join(os.path.dirname(__file__), "..", "corpus")


def varint(value: int) -> bytes:
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def string(text: bytes) -> bytes:
    return varint(len(text)) + text


def header(version=3, name=b"fuzz-seed", http_hint=2, tls_hint=1) -> bytes:
    out = b"ADST" + varint(version) + string(name)
    out += varint(1438387200)  # start_unix_s
    out += varint(3600)        # duration_s
    out += varint(9000)        # subscribers
    out += varint(10)          # uplink_gbps
    if version >= 3:
        out += struct.pack("<QQ", http_hint, tls_hint)
    return out


def http_record(ts, host_id, host=None, uri=b"/ad.js", ua_id=0, ct_id=0,
                referer=b"", location=b"", payload=b""):
    out = varint(1)            # RecordTag::kHttp
    out += varint(ts)          # timestamp_ms
    out += varint(0x0A000001)  # client_ip
    out += varint(0x5DB8D822)  # server_ip
    out += varint(80)          # server_port
    out += varint(200)         # status_code
    out += varint(host_id)     # host dictionary id
    if host is not None:
        out += string(host)    # inline definition
    out += string(uri)
    out += string(referer)
    out += varint(ua_id)
    out += varint(ct_id)
    out += string(location)
    out += varint(1234)        # content_length
    out += varint(500)         # tcp_handshake_us
    out += varint(800)         # http_handshake_us
    out += string(payload)
    return out


def tls_record(ts):
    out = varint(2)            # RecordTag::kTls
    out += varint(ts)
    out += varint(0x0A000002)
    out += varint(0x5DB8D823)
    out += varint(443)
    out += varint(4096)        # bytes
    return out


END = varint(0)


def write(target, name, data):
    path = os.path.join(ROOT, target, name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(data)
    print(f"{path}: {len(data)} bytes")


def adst_seeds(target):
    valid = (header()
             + http_record(1000, 1, host=b"ads.example.com")
             + http_record(2000, 1, uri=b"/pixel.gif")
             + tls_record(2500)
             + END)
    write(target, "valid_small.adst", valid)
    write(target, "valid_v2.adst",
          header(version=2) + http_record(1000, 1, host=b"cdn.example.net")
          + END)
    write(target, "no_end_marker.adst",
          header() + http_record(1000, 1, host=b"x.example"))
    write(target, "truncated_record.adst", valid[:len(valid) - 9])
    write(target, "bad_magic.adst", b"NOPE" + valid[4:])
    write(target, "dict_gap.adst",
          header() + http_record(1000, 7) + END)  # id 7, nothing defined
    # Hostile 4 GiB string length prefix on the uri field.
    huge = (header()
            + varint(1) + varint(1000) + varint(1) + varint(2) + varint(80)
            + varint(200) + varint(0) + varint(1 << 32))
    write(target, "huge_length_prefix.adst", huge)
    # Varint with continuation bits past 64 bits of payload.
    write(target, "varint_overflow.adst", header() + b"\xff" * 11)
    # Count hints claiming billions of records (reserve clamp).
    write(target, "huge_count_hint.adst",
          header(http_hint=1 << 40, tls_hint=1 << 40) + END)


def live_seeds(target):
    adst_seeds(target)
    # Out of time order across buckets: the earlier bucket may already
    # be sealed when its records arrive (late drops).
    write(target, "late_records.adst",
          header() + http_record(200000, 1, host=b"ads.example.com")
          + tls_record(250000) + http_record(1000, 1) + tls_record(2000)
          + END)
    # More records than one decoder batch, so batches split mid-stream.
    many = header() + http_record(1000, 1, host=b"ads.example.com")
    for i in range(300):
        many += http_record(1000 + 997 * i, 1, uri=b"/p%d" % i)
    write(target, "many_records.adst", many + tls_record(400000) + END)


def main():
    adst_seeds("stream_decoder")
    adst_seeds("mmap_reader")
    live_seeds("live_ingest")


if __name__ == "__main__":
    main()
