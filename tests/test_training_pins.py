"""Pins on training arithmetic: retrained checkpoints must not move a bit.

The one-voice recipe is the one that made the benchmark's committed nets
(bundled cantus corpus, 15 hidden units, seeds 1 and 2, 500 epochs,
learning rate 2.0); the expected hashes are those of ``netA.ckpt`` and
``netB.ckpt``, copied here as literals.  The two-voice pin trains on the
bundled duet corpus at 8 and 24 hidden units and hashes each loss curve's
``repr`` together with the checkpoint bytes; it was recorded before the
training loop became an in-place kernel.
"""

import hashlib
from importlib import resources

from bicinium.corpus import parse_corpus
from bicinium.seqnet import SequentialNet, save_net, train

NET_A_SHA256 = "f763adba6ac0ef5bb112b9ae5b30fa2e2ee637da2735b7da358e2083b5977109"
NET_B_SHA256 = "0c634694c217543867170a6d2d5cea9a11426089ac3c7d4927bcc60810b35137"
TWO_VOICE_SHA256 = "07fa53c684e43287e255313a2cb3809e5655fa80402d7e1c01270fd0f0f90381"


def _samples(name):
    text = (resources.files("bicinium.data") / name).read_text()
    corpus = parse_corpus(text)
    return corpus.voices, corpus.training_set()


def _trained(tmp_path, samples, voices, hidden, seed):
    net = SequentialNet.new(plan_size=4, hidden_size=hidden, voices=voices,
                            seed=seed)
    curve = train(net, samples, epochs=500, learning_rate=2.0)
    path = tmp_path / "net.ckpt"
    save_net(net, path)
    return curve, path.read_bytes()


def test_retrained_fixture_checkpoints_match_committed_hashes(tmp_path):
    voices, samples = _samples("cantus_one_voice.txt")
    got = [hashlib.sha256(_trained(tmp_path, samples, voices, 15, seed)[1])
           .hexdigest() for seed in (1, 2)]
    assert got == [NET_A_SHA256, NET_B_SHA256]


def test_two_voice_training_matches_pinned_hash(tmp_path):
    voices, samples = _samples("duets_two_voice.txt")
    digest = hashlib.sha256()
    for hidden, seed in ((8, 1), (24, 2)):
        curve, ckpt = _trained(tmp_path, samples, voices, hidden, seed)
        digest.update(repr(curve).encode() + b"\n" + ckpt)
    assert digest.hexdigest() == TWO_VOICE_SHA256
