"""Seeded request mixes for the serve phase of the benchmark.

The generator sees only the seed, the workload name, the run length and
the catalog facts `pb info` prints (uarches, variant names, mnemonics,
extensions and an assembler pool). The same inputs give a
byte-identical request file; `digest` is its SHA-256.

Each request is one tab-separated line:
    class  method  target  inm(0|1)  sample(0|1)  body
`inm` asks the load generator to send If-None-Match with the served
generation's ETag (the answer must be 304). `sample` marks the requests
whose wire bytes are compared with a direct QueryService::handle()
render. POST bodies separate instructions with ';'.

Request classes (the per-class metrics use these names):
    blob       /uarchs, /instr/{name}[?uarch=], If-None-Match 304s
    search     /search
    analytics  /analytics/regressions and /diff
    predict    /predict
    reload     POST /reload
"""

import hashlib
import math
import random
import urllib.parse

CLASSES = ("blob", "search", "analytics", "predict", "reload")

# serve_hot: a fixed list the closed loop cycles through.
HOT_LIST_LEN = 20000
HOT_SAMPLES = 300
# serve_cold: users that think COLD_THINK_MS between requests; four of
# them send at most ~890 requests/s, so COLD_PER_SECOND list entries
# per second of run never wrap. A reload every COLD_RELOAD_EVERY
# requests (about one every three seconds).
COLD_USERS = 4
COLD_THINK_MS = 4.5
COLD_PER_SECOND = 1000
COLD_RELOAD_EVERY = 2400
COLD_SAMPLE_EVERY = 50

WIDE_SEARCH = "/search?limit=100000"  # every record (~0.9 MB)


class Request:
    __slots__ = ("cls", "method", "target", "inm", "sample", "body")

    def __init__(self, cls, method, target, inm=False, body=""):
        assert cls in CLASSES
        self.cls = cls
        self.method = method
        self.target = target
        self.inm = inm
        self.sample = False
        self.body = body

    def line(self):
        fields = (self.cls, self.method, self.target,
                  "1" if self.inm else "0", "1" if self.sample else "0",
                  self.body)
        for f in fields:
            assert "\t" not in f and "\n" not in f, f
        return "\t".join(fields)


def serialize(requests):
    return ("\n".join(r.line() for r in requests) + "\n").encode()


def digest(requests):
    return hashlib.sha256(serialize(requests)).hexdigest()


class _Catalog:
    """Lookup tables over `pb info` output."""

    def __init__(self, info):
        self.uarches = list(info["uarches"])
        self.names = {u: list(info["names"][u]) for u in self.uarches}
        self.all_names = sorted({n for u in self.uarches
                                 for n in self.names[u]})
        self.uarches_of = {}
        for u in self.uarches:
            for n in self.names[u]:
                self.uarches_of.setdefault(n, []).append(u)
        self.mnemonics = list(info["mnemonics"])
        self.extensions = list(info["extensions"])
        self.pool = {u: [] for u in self.uarches}
        for line, arches in info["asm_pool"]:
            for u in arches:
                if u in self.pool:
                    self.pool[u].append(line)
        for u in self.uarches:
            assert self.pool[u], "empty assembler pool for " + u


def _zipf_picker(rng, items, s=1.1):
    """Skewed draw over a seeded permutation of `items`."""
    order = list(items)
    rng.shuffle(order)
    weights = [1.0 / math.pow(rank + 1, s) for rank in range(len(order))]
    total = 0.0
    cum = []
    for w in weights:
        total += w
        cum.append(total)
    return lambda: rng.choices(order, cum_weights=cum)[0]


def _q(value):
    return urllib.parse.quote(value, safe="")


def _block(rng, cat, uarch, size):
    return ";".join(rng.choice(cat.pool[uarch]) for _ in range(size))


def _ports(rng, count):
    return "p" + "".join(sorted(rng.sample("01234567", count)))


def _search_target(rng, cat, limit=None):
    params = []
    if rng.random() < 0.5:
        params.append(("uarch", rng.choice(cat.uarches)))
    optional = [
        lambda: ("uses", _ports(rng, rng.randint(1, 2))),
        lambda: ("uses_only", _ports(rng, rng.randint(3, 5))),
        lambda: ("uops_max", str(rng.randint(1, 4))),
        lambda: ("lat_max", str(rng.randint(1, 12))),
        lambda: ("tp_max", rng.choice(["0.25", "0.33", "0.5", "1", "2"])),
        lambda: ("extension", rng.choice(cat.extensions)),
        lambda: ("mnemonic", rng.choice(cat.mnemonics)),
    ]
    for make in rng.sample(optional, rng.randint(1, 3)):
        params.append(make())
    params.append(("limit", str(limit or rng.randint(20, 400))))
    return "/search?" + "&".join(k + "=" + _q(v) for k, v in params)


def _analytics_target(rng, cat, limit=None):
    a, b = rng.sample(cat.uarches, 2)
    if limit is None and rng.random() < 0.25:
        return "/diff?a=%s&b=%s" % (a, b)
    target = "/analytics/regressions?from=%s&to=%s&metric=%s&direction=%s" % (
        a, b, rng.choice(["tp", "latency", "any"]),
        rng.choice(["regressed", "improved", "changed"]))
    if rng.random() < 0.3:
        target += "&extension=" + _q(rng.choice(cat.extensions))
    return target + "&limit=%d" % (limit or rng.randint(10, 300))


def _predict_repeat(rng, cat, index):
    """A /predict for the hot list: even indices GET (response cache),
    odd ones POST (kernel memo)."""
    uarch = rng.choice(cat.uarches)
    block = _block(rng, cat, uarch, rng.randint(1, 8))
    if index % 2 == 0:
        return Request("predict", "GET",
                       "/predict?uarch=%s&asm=%s" % (uarch, _q(block)))
    return Request("predict", "POST", "/predict?uarch=" + uarch, body=block)


def _blob(rng, cat, pick_name, inm=False):
    roll = rng.random()
    if roll < 0.1:
        return Request("blob", "GET", "/uarchs", inm=inm)
    name = pick_name()
    if roll < 0.55:
        return Request("blob", "GET", "/instr/" + name, inm=inm)
    uarch = rng.choice(cat.uarches_of[name])
    return Request("blob", "GET", "/instr/%s?uarch=%s" % (name, uarch),
                   inm=inm)


def _mark_samples(rng, requests, count):
    candidates = [i for i, r in enumerate(requests) if r.cls != "reload"]
    for i in rng.sample(candidates, min(count, len(candidates))):
        requests[i].sample = True


def _deck(rng, mix, count):
    """`count` kinds drawn in shuffled decks of 100 with the exact
    per-deck counts of `mix` (kind -> count per 100), so every seed
    gets the same class proportions and only the contents vary."""
    assert sum(mix.values()) == 100
    deck = [kind for kind, n in sorted(mix.items()) for _ in range(n)]
    out = []
    while len(out) < count:
        rng.shuffle(deck)
        out.extend(deck)
    return out[:count]


HOT_MIX = {"revalidate": 55, "blob": 27, "search": 10, "analytics": 4,
           "predict": 4}
HOT_WIDE = 4   # wide /search requests in the hot list
HOT_LIMIT = 20  # limit= of the other hot /search and /analytics targets


def serve_hot(info, seed):
    """Warm polling clients: every answer is precomputed state."""
    rng = random.Random("serve_hot:%d" % seed)
    cat = _Catalog(info)
    pick_name = _zipf_picker(rng, cat.all_names)
    # One result size for every repeated search and analytics target,
    # so the seed picks which answers are polled, not how big they are.
    searches = sorted({_search_target(rng, cat, HOT_LIMIT)
                       for _ in range(24)})
    analytics = sorted({_analytics_target(rng, cat, HOT_LIMIT)
                        for _ in range(12)})
    predicts = [_predict_repeat(rng, cat, i) for i in range(12)]
    out = []
    for kind in _deck(rng, HOT_MIX, HOT_LIST_LEN):
        if kind == "revalidate":
            out.append(_blob(rng, cat, pick_name, inm=True))
        elif kind == "blob":
            out.append(_blob(rng, cat, pick_name))
        elif kind == "search":
            out.append(Request("search", "GET", rng.choice(searches)))
        elif kind == "analytics":
            out.append(Request("analytics", "GET", rng.choice(analytics)))
        else:
            p = rng.choice(predicts)
            out.append(Request(p.cls, p.method, p.target, body=p.body))
    slots = [i for i, r in enumerate(out) if r.cls == "search"]
    for i in rng.sample(slots, HOT_WIDE):
        out[i] = Request("search", "GET", WIDE_SEARCH)
    _mark_samples(rng, out, HOT_SAMPLES)
    return out


COLD_MIX = {"search": 40, "analytics": 16, "predict": 31,
            "predict_repeat": 6, "blob": 7}


def serve_cold(info, seed, seconds):
    """Independent users that wait for each answer: unique work per
    request, periodic reloads."""
    rng = random.Random("serve_cold:%d" % seed)
    cat = _Catalog(info)
    pick_name = _zipf_picker(rng, cat.all_names)
    repeated = []
    for _ in range(16):
        uarch = rng.choice(cat.uarches)
        repeated.append((uarch, _block(rng, cat, uarch, rng.randint(1, 8))))
    seen = set()

    def unique(make):
        while True:
            value = make()
            if value not in seen:
                seen.add(value)
                return value

    count = int(math.ceil(COLD_PER_SECOND * seconds))
    kinds = iter(_deck(rng, COLD_MIX, count))
    out = []
    for i in range(count):
        if i % COLD_RELOAD_EVERY == COLD_RELOAD_EVERY - 1:
            out.append(Request("reload", "POST", "/reload"))
            continue
        kind = next(kinds)
        if kind == "search":
            out.append(Request("search", "GET",
                               unique(lambda: _search_target(rng, cat))))
        elif kind == "analytics":
            out.append(Request("analytics", "GET",
                               unique(lambda: _analytics_target(rng, cat))))
        elif kind == "predict":
            def fresh():
                uarch = rng.choice(cat.uarches)
                return (uarch, _block(rng, cat, uarch, rng.randint(1, 8)))
            uarch, block = unique(fresh)
            out.append(Request("predict", "POST", "/predict?uarch=" + uarch,
                               body=block))
        elif kind == "predict_repeat":
            uarch, block = rng.choice(repeated)
            out.append(Request("predict", "POST", "/predict?uarch=" + uarch,
                               body=block))
        else:
            out.append(_blob(rng, cat, pick_name))
    _mark_samples(rng, out, max(1, count // COLD_SAMPLE_EVERY))
    return out


def generate(info, workload, seed, seconds):
    if workload == "serve_hot":
        return serve_hot(info, seed)
    if workload == "serve_cold":
        return serve_cold(info, seed, seconds)
    raise ValueError("unknown workload " + workload)
