"""``repro.serialize``: the splice path's bytes and atomic writes.

* **Splice path** — a dict holding :class:`CanonicalJSON` values is
  written key by key; its text must equal ``json.dumps`` of the same
  dict with every spliced value parsed back, over any string keys and
  any JSON values.
* **Atomic writes** — two threads writing one path never share a temp
  file: no write fails, and a reader always finds one whole text.
"""

import json
import sys
import threading
import time

from hypothesis import given, settings, strategies as st

from repro.serialize import CanonicalJSON, encode_canonical, write_atomic


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


KEYS = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8)

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(),  # NaN, both infinities and -0.0 included
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300]),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",))),
)

VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=10,
)


@settings(max_examples=200, deadline=None)
@given(
    entries=st.dictionaries(KEYS, st.tuples(VALUES, st.booleans()), max_size=8),
    key=KEYS,
    spliced=VALUES,
)
def test_splice_path_is_byte_identical_to_json_dumps(entries, key, spliced):
    entries[key] = (spliced, True)  # at least one value is spliced
    data = {k: CanonicalJSON(_dumps(v)) if splice else v
            for k, (v, splice) in entries.items()}
    parsed = {k: json.loads(v) if isinstance(v, CanonicalJSON) else v
              for k, v in data.items()}
    assert encode_canonical(data) == _dumps(parsed)


def test_two_threads_writing_one_path_never_collide(tmp_path):
    path = tmp_path / "entry.json"
    texts = ("a" * 200_000, "b" * 200_000)
    errors, torn = [], []
    deadline = time.monotonic() + 5.0

    def writer(text):
        for _ in range(50):
            if time.monotonic() > deadline:
                return
            try:
                write_atomic(path, text)
                if path.read_text(encoding="utf-8") not in texts:
                    torn.append(text[0])
            except OSError as exc:
                errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _trial in range(4):
            threads = [threading.Thread(target=writer, args=(text,))
                       for text in texts]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert torn == []
    assert path.read_text(encoding="utf-8") in texts
    assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]
