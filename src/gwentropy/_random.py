"""Every random draw of the package, from a (seed, stream) key to a value.

SeededSampler(seed, stream).generator() is numpy's Philox4x64-10 generator
(Salmon et al., SC'11) keyed by seed and stream modulo 2**64.  The engine
draws many streams at once from an array port of it, each with the bits it
has on its own: uniforms by numpy's next_double, and Gamma values by the
squeeze-free Marsaglia-Tsang method (J. Stat. Softw. 5(8), 2000) on normals
from an array port of numpy's ziggurat, over a read-only block of each
stream's first words and any word past it computed where it is read.  The
normals of all rows are read in one pass: every word that misses the
ziggurat's fast path is a candidate, all candidates take the slow path in
one call, a candidate that an earlier slow word reads as a double is
dropped, one gather places every row's outputs, and the rows left short
draw the rest in one more call on those rows.  The rest of the package
uses only SeededSampler, stream_words and its limits N_LIMIT and B_LIMIT,
uniforms, gammas and gamma_row."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# the stream layout (tag << 56) | (n << 32) | r holds sample sizes
# n < N_LIMIT and at most B_LIMIT replications: past them the bits of n
# reach the tag, and those of r reach n
N_LIMIT = 1 << 24
B_LIMIT = 1 << 32
_MASK = (1 << 64) - 1


def _key_word(value: int) -> int:
    """value modulo 2**64, the range of a Philox key word."""
    return value & _MASK


@dataclass(frozen=True)
class SeededSampler:
    """Counter-based random source keyed by (seed, stream).

    Distinct streams under one seed are statistically independent, and a
    stream's output never depends on how many other streams exist, so any
    replication layout reproduces bit for bit.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([_key_word(self.seed), _key_word(self.stream)], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def stream_words(tag: int, n: int, rows: np.ndarray) -> np.ndarray:
    """Stream numbers of replications `rows` at size n on tag, for n < N_LIMIT and rows < B_LIMIT."""
    return np.uint64((tag << 56) | (n << 32)) | rows.astype(np.uint64)


def uniforms(seed: int, streams: np.ndarray, n: int) -> np.ndarray:
    """Row i is SeededSampler(seed, streams[i]).generator().random(n), bit for bit."""
    return _doubles(_philox_words(seed, streams, 1, -(-n // 4))[:, :n])


def gammas(shape: float, seed: int, streams: np.ndarray, n: int) -> np.ndarray:
    """Row i is gamma_row(shape, n, SeededSampler(seed, streams[i]).generator()),
    bit for bit, from one set of rejection rounds over every row."""
    first = (3 if shape < 1.0 else 2) * n  # the words of a row's boost block and first round
    words = _WordBuffer(seed, streams, first + int(first * _GAMMA_SPARE) + 4)
    return _gamma_rounds(shape, words, streams.size, n)


def gamma_row(shape: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n Gamma(shape, 1) values drawn from rng by _gamma_rounds."""
    return _gamma_rounds(shape, _GeneratorWords(rng), 1, n)[0]


# Philox4x64-10 with numpy's constants and word order
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


def _mulhi(a: int, b: np.ndarray, hi: np.ndarray, scratch: list) -> np.ndarray:
    """The high word of the 128-bit product a * b, from 32-bit halves, into
    hi and returned, with three buffers of b's shape as scratch."""
    a_lo, a_hi = np.uint64(a & 0xFFFFFFFF), np.uint64(a >> 32)
    b_lo, low, low_mid = scratch
    np.multiply(a_hi, np.bitwise_and(b, _LO32, out=b_lo), out=hi)
    hi += np.right_shift(np.multiply(a_lo, b_lo, out=low), _S32, out=low)  # mid; no partial sum here exceeds 2**64 - 1
    b_hi = np.right_shift(b, _S32, out=b_lo)
    np.add(np.multiply(a_lo, b_hi, out=low_mid), np.bitwise_and(hi, _LO32, out=low), out=low_mid)
    hi >>= _S32
    hi += np.multiply(a_hi, b_hi, out=b_hi)
    hi += np.right_shift(low_mid, _S32, out=low_mid)
    return hi


def _philox_words(seed: int, streams: np.ndarray, first_block, blocks: int) -> np.ndarray:
    """The 4 * blocks words of each row's Philox stream from counter first_block
    on (an int, or one per row), as SeededSampler(seed, streams[i]).generator()
    emits them: for counters 1, 2, ..., the four words of each ten-round block.

    The counter enters with c1 = c2 = c3 = 0, so round 1 multiplies only the
    counters, of shape (1 or rows, blocks), and leaves c0 = k0 and c1 = 0;
    round 2's c0 product is then one Python-int multiply.  The rounds run in
    place in eight (rows, blocks) buffers of one allocation: the state, a
    high word and the scratch of _mulhi.  One allocation of that size also
    keeps glibc from trimming the heap under an engine block's temporaries,
    which then faulted their pages back in at every block."""
    rows = streams.size
    m0, m1 = np.uint64(_PHILOX_M[0]), np.uint64(_PHILOX_M[1])
    counters = np.asarray(first_block, dtype=np.uint64).reshape(-1, 1) + np.arange(blocks, dtype=np.uint64)
    k0, k1 = _key_word(seed), streams.astype(np.uint64).reshape(rows, 1)
    c0, c1, c2, c3, hi, *scratch = np.empty((8, rows, blocks), dtype=np.uint64)
    m = len(counters)  # 1 or rows
    np.bitwise_xor(_mulhi(_PHILOX_M[0], counters, hi[:m], [t[:m] for t in scratch]), k1, out=c2)
    lo0 = counters * m0
    p0 = _PHILOX_M[0] * k0
    # Weyl key bump; uint64 arrays wrap, Python ints are reduced
    k0, k1 = _key_word(k0 + _PHILOX_W[0]), k1 + np.uint64(_PHILOX_W[1])
    np.bitwise_xor(_mulhi(_PHILOX_M[1], c2, c0, scratch), np.uint64(k0), out=c0)
    np.multiply(c2, m1, out=c1)
    np.bitwise_xor(lo0 ^ np.uint64(p0 >> 64), k1, out=c2)
    c3.fill(p0 & _MASK)
    for _ in range(8):
        k0, k1 = _key_word(k0 + _PHILOX_W[0]), k1 + np.uint64(_PHILOX_W[1])
        # c2' goes to hi, and c0' to c0's buffer once c3' = lo(M0 * c0) is taken
        np.bitwise_xor(_mulhi(_PHILOX_M[0], c0, hi, scratch), c3, out=hi)
        hi ^= k1
        np.multiply(c0, m0, out=c3)
        np.bitwise_xor(_mulhi(_PHILOX_M[1], c2, c0, scratch), c1, out=c0)
        c0 ^= np.uint64(k0)
        np.multiply(c2, m1, out=c1)
        c2, hi = hi, c2
    del k1  # one word per row, dead from here: not beside the words, the engine's traced peak
    words = np.empty((rows, blocks, 4), dtype=np.uint64)
    words[..., 0], words[..., 1], words[..., 2], words[..., 3] = c0, c1, c2, c3
    return words.reshape(rows, 4 * blocks)


def _doubles(words: np.ndarray, out=None) -> np.ndarray:
    """numpy's next_double of each word, which is overwritten: the top 53
    bits, times 2**-53, into out (new if not given)."""
    return np.multiply(np.right_shift(words, np.uint64(11), out=words), 2.0**-53, out=out)


# numpy's ziggurat normal (random_standard_normal): a word w gives the layer
# idx = w & 0xFF, the sign bit 8 and rabs = the 52 bits above it; rabs < KI[idx]
# (about 99.3% of words) returns +-rabs * WI[idx] at once, anything else is
# the slow path of _slow_normals
_RABS = np.uint64(0x000FFFFFFFFFFFFF)
_LAYER = np.uint64(0xFF)
_RABS_SIGN = np.uint64(0x001FFFFFFFFFFFFF)  # 2 rabs + sign, of a word shifted right by 8

# numpy's tables, from numpy/random/src/distributions/ziggurat_constants.h:
# ki_double, wi_double and fi_double over the 256 layers, the widths and
# densities as IEEE-754 bit patterns, so the tables carry no decimal rounding
_NOR_R = 3.6541528853610087963519472518  # ziggurat_nor_r, start of the tail
_NOR_INV_R = 0.27366123732975827203338247596  # ziggurat_nor_inv_r = 1 / R

_KI = np.array((
    0x000EF33D8025EF6A, 0x0000000000000000, 0x000C08BE98FBC6A8, 0x000DA354FABD8142,
    0x000E51F67EC1EEEA, 0x000EB255E9D3F77E, 0x000EEF4B817ECAB9, 0x000F19470AFA44AA,
    0x000F37ED61FFCB18, 0x000F4F469561255C, 0x000F61A5E41BA396, 0x000F707A755396A4,
    0x000F7CB2EC28449A, 0x000F86F10C6357D3, 0x000F8FA6578325DE, 0x000F9724C74DD0DA,
    0x000F9DA907DBF509, 0x000FA360F581FA74, 0x000FA86FDE5B4BF8, 0x000FACF160D354DC,
    0x000FB0FB6718B90F, 0x000FB49F8D5374C6, 0x000FB7EC2366FE77, 0x000FBAECE9A1E50E,
    0x000FBDAB9D040BED, 0x000FC03060FF6C57, 0x000FC2821037A248, 0x000FC4A67AE25BD1,
    0x000FC6A2977AEE31, 0x000FC87AA92896A4, 0x000FCA325E4BDE85, 0x000FCBCCE902231A,
    0x000FCD4D12F839C4, 0x000FCEB54D8FEC99, 0x000FD007BF1DC930, 0x000FD1464DD6C4E6,
    0x000FD272A8E2F450, 0x000FD38E4FF0C91E, 0x000FD49A9990B478, 0x000FD598B8920F53,
    0x000FD689C08E99EC, 0x000FD76EA9C8E832, 0x000FD848547B08E8, 0x000FD9178BAD2C8C,
    0x000FD9DD07A7ADD2, 0x000FDA9970105E8C, 0x000FDB4D5DC02E20, 0x000FDBF95C5BFCD0,
    0x000FDC9DEBB99A7D, 0x000FDD3B8118729D, 0x000FDDD288342F90, 0x000FDE6364369F64,
    0x000FDEEE708D514E, 0x000FDF7401A6B42E, 0x000FDFF46599ED40, 0x000FE06FE4BC24F2,
    0x000FE0E6C225A258, 0x000FE1593C28B84C, 0x000FE1C78CBC3F99, 0x000FE231E9DB1CAA,
    0x000FE29885DA1B91, 0x000FE2FB8FB54186, 0x000FE35B33558D4A, 0x000FE3B799D0002A,
    0x000FE410E99EAD7F, 0x000FE46746D47734, 0x000FE4BAD34C095C, 0x000FE50BAED29524,
    0x000FE559F74EBC78, 0x000FE5A5C8E41212, 0x000FE5EF3E138689, 0x000FE6366FD91078,
    0x000FE67B75C6D578, 0x000FE6BE661E11AA, 0x000FE6FF55E5F4F2, 0x000FE73E5900A702,
    0x000FE77B823E9E39, 0x000FE7B6E37070A2, 0x000FE7F08D774243, 0x000FE8289053F08C,
    0x000FE85EFB35173A, 0x000FE893DC840864, 0x000FE8C741F0CEBC, 0x000FE8F9387D4EF6,
    0x000FE929CC879B1D, 0x000FE95909D388EA, 0x000FE986FB939AA2, 0x000FE9B3AC714866,
    0x000FE9DF2694B6D5, 0x000FEA0973ABE67C, 0x000FEA329CF166A4, 0x000FEA5AAB32952C,
    0x000FEA81A6D5741A, 0x000FEAA797DE1CF0, 0x000FEACC85F3D920, 0x000FEAF07865E63C,
    0x000FEB13762FEC13, 0x000FEB3585FE2A4A, 0x000FEB56AE3162B4, 0x000FEB76F4E284FA,
    0x000FEB965FE62014, 0x000FEBB4F4CF9D7C, 0x000FEBD2B8F449D0, 0x000FEBEFB16E2E3E,
    0x000FEC0BE31EBDE8, 0x000FEC2752B15A15, 0x000FEC42049DAFD3, 0x000FEC5BFD29F196,
    0x000FEC75406CEEF4, 0x000FEC8DD2500CB4, 0x000FECA5B6911F12, 0x000FECBCF0C427FE,
    0x000FECD38454FB15, 0x000FECE97488C8B3, 0x000FECFEC47F91B7, 0x000FED1377358528,
    0x000FED278F844903, 0x000FED3B10242F4C, 0x000FED4DFBAD586E, 0x000FED605498C3DD,
    0x000FED721D414FE8, 0x000FED8357E4A982, 0x000FED9406A42CC8, 0x000FEDA42B85B704,
    0x000FEDB3C8746AB4, 0x000FEDC2DF416652, 0x000FEDD171A46E52, 0x000FEDDF813C8AD3,
    0x000FEDED0F909980, 0x000FEDFA1E0FD414, 0x000FEE06AE124BC4, 0x000FEE12C0D95A06,
    0x000FEE1E579006E0, 0x000FEE29734B6524, 0x000FEE34150AE4BC, 0x000FEE3E3DB89B3C,
    0x000FEE47EE2982F4, 0x000FEE51271DB086, 0x000FEE59E9407F41, 0x000FEE623528B42E,
    0x000FEE6A0B5897F1, 0x000FEE716C3E077A, 0x000FEE7858327B82, 0x000FEE7ECF7B06BA,
    0x000FEE84D2484AB2, 0x000FEE8A60B66343, 0x000FEE8F7ACCC851, 0x000FEE94207E25DA,
    0x000FEE9851A829EA, 0x000FEE9C0E13485C, 0x000FEE9F557273F4, 0x000FEEA22762CCAE,
    0x000FEEA4836B42AC, 0x000FEEA668FC2D71, 0x000FEEA7D76ED6FA, 0x000FEEA8CE04FA0A,
    0x000FEEA94BE8333B, 0x000FEEA950296410, 0x000FEEA8D9C0075E, 0x000FEEA7E7897654,
    0x000FEEA678481D24, 0x000FEEA48AA29E83, 0x000FEEA21D22E4DA, 0x000FEE9F2E352024,
    0x000FEE9BBC26AF2E, 0x000FEE97C524F2E4, 0x000FEE93473C0A3A, 0x000FEE8E40557516,
    0x000FEE88AE369C7A, 0x000FEE828E7F3DFD, 0x000FEE7BDEA7B888, 0x000FEE749BFF37FF,
    0x000FEE6CC3A9BD5E, 0x000FEE64529E007E, 0x000FEE5B45A32888, 0x000FEE51994E57B6,
    0x000FEE474A0006CF, 0x000FEE3C53E12C50, 0x000FEE30B2E02AD8, 0x000FEE2462AD8205,
    0x000FEE175EB83C5A, 0x000FEE09A22A1447, 0x000FEDFB27E349CC, 0x000FEDEBEA76216C,
    0x000FEDDBE422047E, 0x000FEDCB0ECE39D3, 0x000FEDB964042CF4, 0x000FEDA6DCE938C9,
    0x000FED937237E98D, 0x000FED7F1C38A836, 0x000FED69D2B9C02B, 0x000FED538D06AE00,
    0x000FED3C41DEA422, 0x000FED23E76A2FD8, 0x000FED0A732FE644, 0x000FECEFDA07FE34,
    0x000FECD4100EB7B8, 0x000FECB708956EB4, 0x000FEC98B61230C1, 0x000FEC790A0DA978,
    0x000FEC57F50F31FE, 0x000FEC356686C962, 0x000FEC114CB4B335, 0x000FEBEB948E6FD0,
    0x000FEBC429A0B692, 0x000FEB9AF5EE0CDC, 0x000FEB6FE1C98542, 0x000FEB42D3AD1F9E,
    0x000FEB13B00B2D4B, 0x000FEAE2591A02E9, 0x000FEAAEAE992257, 0x000FEA788D8EE326,
    0x000FEA3FCFFD73E5, 0x000FEA044C8DD9F6, 0x000FE9C5D62F563B, 0x000FE9843BA947A4,
    0x000FE93F471D4728, 0x000FE8F6BD76C5D6, 0x000FE8AA5DC4E8E6, 0x000FE859E07AB1EA,
    0x000FE804F690A940, 0x000FE7AB488233C0, 0x000FE74C751F6AA5, 0x000FE6E8102AA202,
    0x000FE67DA0B6ABD8, 0x000FE60C9F38307E, 0x000FE5947338F742, 0x000FE51470977280,
    0x000FE48BD436F458, 0x000FE3F9BFFD1E37, 0x000FE35D35EEB19C, 0x000FE2B5122FE4FE,
    0x000FE20003995557, 0x000FE13C82788314, 0x000FE068C4EE67B0, 0x000FDF82B02B71AA,
    0x000FDE87C57EFEAA, 0x000FDD7509C63BFD, 0x000FDC46E529BF13, 0x000FDAF8F82E0282,
    0x000FD985E1B2BA75, 0x000FD7E6EF48CF04, 0x000FD613ADBD650B, 0x000FD40149E2F012,
    0x000FD1A1A7B4C7AC, 0x000FCEE204761F9E, 0x000FCBA8D85E11B2, 0x000FC7D26ECD2D22,
    0x000FC32B2F1E22ED, 0x000FBD6581C0B83A, 0x000FB606C4005434, 0x000FAC40582A2874,
    0x000F9E971E014598, 0x000F89FA48A41DFC, 0x000F66C5F7F0302C, 0x000F1A5A4B331C4A,
), dtype=np.uint64)

_WI = np.array((
    0x3CCF493B7815D979, 0x3C8B8D0BE3FDF6C6, 0x3C9250AF3C2C5BB4, 0x3C957CB938443B61,
    0x3C9801FCE82FA70C, 0x3C9A230C2E4CD0BC, 0x3C9C004D2F3861F7, 0x3C9DAC2F5A747274,
    0x3C9F32482D4CD5C3, 0x3CA04D32278EBBAD, 0x3CA0F5053B025D43, 0x3CA192A697413677,
    0x3CA227A28F7A1AF5, 0x3CA2B52E3863D880, 0x3CA33C3FC05791F5, 0x3CA3BD9EC1A2B12F,
    0x3CA439EF8DFF9B55, 0x3CA4B1BB363DFEA7, 0x3CA52575621AD374, 0x3CA59580A707CE96,
    0x3CA60231CFD97EEA, 0x3CA66BD261A37C3D, 0x3CA6D2A292000570, 0x3CA736DAD346F8A6,
    0x3CA798AD10B32A77, 0x3CA7F845AD46F543, 0x3CA855CC53430A77, 0x3CA8B1649E7B769A,
    0x3CA90B2EA94ECF98, 0x3CA96347822C1EEA, 0x3CA9B9C98E38C546, 0x3CAA0ECCDCA4A72C,
    0x3CAA62676D77CD59, 0x3CAAB4AD6E101630, 0x3CAB05B16D136C9C, 0x3CAB558487427A29,
    0x3CABA4368E529F3A, 0x3CABF1D62ABF8232, 0x3CAC3E70F9594EF3, 0x3CAC8A13A5323B61,
    0x3CACD4C9FE72268B, 0x3CAD1E9F0E80B748, 0x3CAD679D29E41F10, 0x3CADAFCE0023B8C3,
    0x3CADF73AA9F17653, 0x3CAE3DEBB5D2EDFE, 0x3CAE83E9337A6F00, 0x3CAEC93ABDF982CE,
    0x3CAF0DE784F06226, 0x3CAF51F654D8F688, 0x3CAF956D9E87D7AE, 0x3CAFD8537DFA2EAC,
    0x3CB00D56E04234EC, 0x3CB02E40F5398F9A, 0x3CB04EEA9E16A5FC, 0x3CB06F565B72A010,
    0x3CB08F869071F40B, 0x3CB0AF7D84BC6113, 0x3CB0CF3D664BCC7F, 0x3CB0EEC84B16086B,
    0x3CB10E20329515EE, 0x3CB12D4707310FBE, 0x3CB14C3E9F8E9141, 0x3CB16B08BFC4201E,
    0x3CB189A71A78DA34, 0x3CB1A81B51EE6D88, 0x3CB1C666F8F82ACB, 0x3CB1E48B93E0D42E,
    0x3CB2028A9940A09F, 0x3CB2206572C4C6E9, 0x3CB23E1D7DE9C31F, 0x3CB25BB40CA96BFB,
    0x3CB2792A661DD37F, 0x3CB29681C719D71B, 0x3CB2B3BB62B82EDA, 0x3CB2D0D862E1B853,
    0x3CB2EDD9E8CBA98E, 0x3CB30AC10D6E48D7, 0x3CB3278EE1F4B930, 0x3CB3444470265EA1,
    0x3CB360E2BACA52D5, 0x3CB37D6ABE05586A, 0x3CB399DD6FB2B264, 0x3CB3B63BBFB83D03,
    0x3CB3D28698561DE0, 0x3CB3EEBEDE725A83, 0x3CB40AE571E09E74, 0x3CB426FB2DA6745D,
    0x3CB44300E83C30A4, 0x3CB45EF773CAC75D, 0x3CB47ADF9E66C336, 0x3CB496BA32488F2F,
    0x3CB4B287F602415D, 0x3CB4CE49ACB311DC, 0x3CB4EA001638A605, 0x3CB505ABEF5E5562,
    0x3CB5214DF20A8B5A, 0x3CB53CE6D56A664F, 0x3CB558774E1BB2C8, 0x3CB574000E555F78,
    0x3CB58F81C60E8514, 0x3CB5AAFD23241B59, 0x3CB5C672D17D733D, 0x3CB5E1E37B2F8CD3,
    0x3CB5FD4FC89F5E38, 0x3CB618B860A31FC3, 0x3CB6341DE8A2B0A2, 0x3CB64F8104B7260B,
    0x3CB66AE257C99672, 0x3CB6864283B13137, 0x3CB6A1A22950B2B1, 0x3CB6BD01E8B343BB,
    0x3CB6D8626128D352, 0x3CB6F3C43161F854, 0x3CB70F27F78B68EB, 0x3CB72A8E516914C6,
    0x3CB745F7DC70EEDC, 0x3CB7616535E5731F, 0x3CB77CD6FAEFF449, 0x3CB7984DC8BABD93,
    0x3CB7B3CA3C8B1409, 0x3CB7CF4CF3DB22FB, 0x3CB7EAD68C73DEE7, 0x3CB80667A486EA1F,
    0x3CB82200DAC88676, 0x3CB83DA2CE899F15, 0x3CB8594E1FD1F5BD, 0x3CB875036F7A7EC5,
    0x3CB890C35F47F72D, 0x3CB8AC8E9205C043, 0x3CB8C865ABA10C9C, 0x3CB8E44951446A27,
    0x3CB9003A2973B58F, 0x3CB91C38DC288347, 0x3CB9384612EF0AFC, 0x3CB954627903A28A,
    0x3CB9708EBB70D5EE, 0x3CB98CCB892E2A31, 0x3CB9A919933F99BF, 0x3CB9C5798CD5D92C,
    0x3CB9E1EC2B6F7411, 0x3CB9FE7226FAD24A, 0x3CBA1B0C39F93692, 0x3CBA37BB21A2C85B,
    0x3CBA547F9E0BBB88, 0x3CBA715A724AA9A4, 0x3CBA8E4C64A0313D, 0x3CBAAB563E9FF108,
    0x3CBAC878CD5AF5CE, 0x3CBAE5B4E18BB336, 0x3CBB030B4FC3A11A, 0x3CBB207CF09A985B,
    0x3CBB3E0AA0E00C00, 0x3CBB5BB541CE3D03, 0x3CBB797DB93F8927, 0x3CBB9764F1E5F73C,
    0x3CBBB56BDB85256E, 0x3CBBD3936B2EC0A2, 0x3CBBF1DC9B81AE83, 0x3CBC10486CEC16A0,
    0x3CBC2ED7E5F07A2D, 0x3CBC4D8C136E0D1C, 0x3CBC6C6608EC8705, 0x3CBC8B66E0EBA617,
    0x3CBCAA8FBD36A2AB, 0x3CBCC9E1C73BD690, 0x3CBCE95E3068E037, 0x3CBD0906328B8F6E,
    0x3CBD28DB1037EF20, 0x3CBD48DE1533C647, 0x3CBD691096E7F123, 0x3CBD8973F4D7FBA5,
    0x3CBDAA0999206E70, 0x3CBDCAD2F8FC490E, 0x3CBDEBD195522E37, 0x3CBE0D06FB49D21C,
    0x3CBE2E74C4EA46F6, 0x3CBE501C99C1D188, 0x3CBE72002F97FE25, 0x3CBE94214B2ABF0A,
    0x3CBEB681C0F76F08, 0x3CBED9237610A73A, 0x3CBEFC086101ECA9, 0x3CBF1F328AC25321,
    0x3CBF42A40FB74D6D, 0x3CBF665F20C90168, 0x3CBF8A6604899782, 0x3CBFAEBB187122BF,
    0x3CBFD360D22FE785, 0x3CBFF859C118F60B, 0x3CC00ED447D3A075, 0x3CC021A8028FC947,
    0x3CC034A983A902AB, 0x3CC047DA4E3EF5C7, 0x3CC05B3BF6ADB37E, 0x3CC06ED023A72668,
    0x3CC082988F632E17, 0x3CC0969708E8A254, 0x3CC0AACD7571C0C4, 0x3CC0BF3DD1EED448,
    0x3CC0D3EA34AA3D30, 0x3CC0E8D4CF116593, 0x3CC0FDFFEFA69FB6, 0x3CC1136E04207041,
    0x3CC129219BBB5D35, 0x3CC13F1D69C4096D, 0x3CC1556448602E3B, 0x3CC16BF93B9DEEF3,
    0x3CC182DF74D21261, 0x3CC19A1A564EEBAC, 0x3CC1B1AD777F2F8E, 0x3CC1C99CA971A694,
    0x3CC1E1EBFBE4AE39, 0x3CC1FA9FC2E2D901, 0x3CC213BC9D04CC81, 0x3CC22D477A6FD3EE,
    0x3CC24745A4AC9C24, 0x3CC261BCC77658E0, 0x3CC27CB2FAA8592E, 0x3CC2982ECD770E78,
    0x3CC2B437532A0A52, 0x3CC2D0D43196DB97, 0x3CC2EE0DB1A978F5, 0x3CC30BECD256AEEE,
    0x3CC32A7B5E68A4A3, 0x3CC349C405AE12A3, 0x3CC369D27A33A840, 0x3CC38AB39256410A,
    0x3CC3AC7570AE88FA, 0x3CC3CF27B31704A6, 0x3CC3F2DBAA60F475, 0x3CC417A49CB9E5DA,
    0x3CC43D9815545E94, 0x3CC464CE44A73A15, 0x3CC48D62759C43BC, 0x3CC4B7739D6B5A27,
    0x3CC4E3250DCD8902, 0x3CC5109F53E9AC41, 0x3CC54011523A7E42, 0x3CC571B1A94AE41B,
    0x3CC5A5C08B718DD9, 0x3CC5DC8A243AD0FE, 0x3CC61669CF861E4C, 0x3CC653CE7B006AEA,
    0x3CC69540BE9FE5C3, 0x3CC6DB6B8D09E232, 0x3CC72728F05F7A34, 0x3CC7799556090673,
    0x3CC7D42DF4D6CE8C, 0x3CC839030529F234, 0x3CC8AB0FBFAA7C14, 0x3CC92EE0946F4496,
    0x3CC9CBEE014057AB, 0x3CCA8FDC7894775A, 0x3CCB981F3878FDB1, 0x3CCD3BB48209AD33,
), dtype=np.uint64).view(np.float64)

_FI = np.array((
    0x3FF0000000000000, 0x3FEF446AC979F087, 0x3FEEB7545B6CA915, 0x3FEE3F11E027F077,
    0x3FEDD36FA704DE95, 0x3FED70920657BCF2, 0x3FED144978A119DC, 0x3FECBD33A8A72DEB,
    0x3FEC6A5ECEA9787F, 0x3FEC1B1CD9EEBAEA, 0x3FEBCEEB4EE1DC82, 0x3FEB85653A8FF552,
    0x3FEB3E3A8234DD10, 0x3FEAF92A3F6CE8A2, 0x3FEAB5FEF17A2504, 0x3FEA748BD550C9E1,
    0x3FEA34AAFDF5AF0F, 0x3FE9F63BEE651FD8, 0x3FE9B9228D240681, 0x3FE97D4657617AC1,
    0x3FE94291C21B7A47, 0x3FE908F1BD31714F, 0x3FE8D0554FE60AA8, 0x3FE898AD48BADF02,
    0x3FE861EBFC37BCAC, 0x3FE82C050F56CF6E, 0x3FE7F6ED4B20E2CB, 0x3FE7C29A779C6858,
    0x3FE78F033CA0B0D5, 0x3FE75C1F0770D856, 0x3FE729E5F43F6D12, 0x3FE6F850BAEA7AEE,
    0x3FE6C7589E635A89, 0x3FE696F75E513B2A, 0x3FE667272A92E323, 0x3FE637E298550C18,
    0x3FE6092498802665, 0x3FE5DAE86F4AFF6A, 0x3FE5AD29ACC85C89, 0x3FE57FE4264C8D8F,
    0x3FE55313F08D9E46, 0x3FE526B55A656CD5, 0x3FE4FAC4E820B667, 0x3FE4CF3F4F494EC0,
    0x3FE4A42172DC5278, 0x3FE479685FDF5012, 0x3FE44F114A493679, 0x3FE425198A355FE3,
    0x3FE3FB7E99585B82, 0x3FE3D23E10AF31A3, 0x3FE3A955A662CD0E, 0x3FE380C32BDA00D5,
    0x3FE358848BF550E9, 0x3FE33097C9703A35, 0x3FE308FAFD6438EF, 0x3FE2E1AC55EA3BEE,
    0x3FE2BAAA14D7954A, 0x3FE293F28E93CD15, 0x3FE26D84290504ED, 0x3FE2475D5A90DB84,
    0x3FE2217CA92FF7F2, 0x3FE1FBE0A9929620, 0x3FE1D687FE549969, 0x3FE1B171573FD111,
    0x3FE18C9B709B3C50, 0x3FE16805128639DA, 0x3FE143AD105EA99C, 0x3FE11F9248311F38,
    0x3FE0FBB3A2325913, 0x3FE0D810104142A0, 0x3FE0B4A68D70D9AE, 0x3FE091761D995D81,
    0x3FE06E7DCCF03C36, 0x3FE04BBCAFA63F2E, 0x3FE02931E18B822A, 0x3FE006DC85B8CAC4,
    0x3FDFC9778C7BBDA1, 0x3FDF859DA7A900CA, 0x3FDF4229CB2F7AF3, 0x3FDEFF1A717E8F95,
    0x3FDEBC6E20BD1F54, 0x3FDE7A236A4EC3C5, 0x3FDE3838EA5F9B85, 0x3FDDF6AD47763A09,
    0x3FDDB57F320B56B1, 0x3FDD74AD6426DE33, 0x3FDD3436A1021080, 0x3FDCF419B4AE5B6D,
    0x3FDCB45573C0A848, 0x3FDC74E8BB00D7C7, 0x3FDC35D26F1D2CB8, 0x3FDBF7117C616A17,
    0x3FDBB8A4D6716D91, 0x3FDB7A8B7807131B, 0x3FDB3CC462B331CA, 0x3FDAFF4E9EA18552,
    0x3FDAC2293A5F5A9E, 0x3FDA85534AA4D880, 0x3FDA48CBEA20C04D, 0x3FDA0C923946843E,
    0x3FD9D0A55E1E93DF, 0x3FD995048418C0C6, 0x3FD959AEDBE09F93, 0x3FD91EA39B33CB17,
    0x3FD8E3E1FCB9F115, 0x3FD8A9693FDE9188, 0x3FD86F38A8AC5AB6, 0x3FD8354F7FAA0DD9,
    0x3FD7FBAD11B8D911, 0x3FD7C250AFF414B0, 0x3FD78939AF9252EB, 0x3FD7506769C7B1ED,
    0x3FD717D93BA9614C, 0x3FD6DF8E86124CAA, 0x3FD6A786AD88DE21, 0x3FD66FC11A25CBE2,
    0x3FD6383D377BE515, 0x3FD600FA7480D2C8, 0x3FD5C9F84376C244, 0x3FD5933619D6EEBE,
    0x3FD55CB3703D0100, 0x3FD5266FC2533BED, 0x3FD4F06A8EBF6D92, 0x3FD4BAA357109CA2,
    0x3FD485199FAD6AD4, 0x3FD44FCCEFC324FE, 0x3FD41ABCD1357A19, 0x3FD3E5E8D08ED2DB,
    0x3FD3B1507CF143AE, 0x3FD37CF368081379, 0x3FD348D125F9D19E, 0x3FD314E94D5AF62F,
    0x3FD2E13B77210766, 0x3FD2ADC73E963FDD, 0x3FD27A8C414DB11E, 0x3FD2478A1F17DE89,
    0x3FD214C079F7CC9E, 0x3FD1E22EF6188116, 0x3FD1AFD539C2F050, 0x3FD17DB2ED5454E8,
    0x3FD14BC7BB34EE67, 0x3FD11A134FCF2423, 0x3FD0E895598709C4, 0x3FD0B74D88B242DA,
    0x3FD0863B8F904336, 0x3FD0555F2242E9D9, 0x3FD024B7F6C7747E, 0x3FCFE88B89DF93C5,
    0x3FCF88108CB83235, 0x3FCF27FE6CE998D2, 0x3FCEC854A4C99C44, 0x3FCE6912B2283CDD,
    0x3FCE0A3816457184, 0x3FCDABC455C7900A, 0x3FCD4DB6F8B2514F, 0x3FCCF00F8A5E6FCC,
    0x3FCC92CD9971DF53, 0x3FCC35F0B7D89D47, 0x3FCBD9787ABE18A1, 0x3FCB7D647A8731AA,
    0x3FCB21B452CCD13A, 0x3FCAC667A2571807, 0x3FCA6B7E0B19267E, 0x3FCA10F7322D7E3D,
    0x3FC9B6D2BFD2FE5A, 0x3FC95D105F6A7C27, 0x3FC903AFBF74FA69, 0x3FC8AAB09192815B,
    0x3FC852128A819A38, 0x3FC7F9D5621F7175, 0x3FC7A1F8D368A323, 0x3FC74A7C9C7AB5A6,
    0x3FC6F3607E964716, 0x3FC69CA43E21F25C, 0x3FC64647A2ADF19C, 0x3FC5F04A76F883F9,
    0x3FC59AAC88F31D6C, 0x3FC5456DA9C86835, 0x3FC4F08DADE31FC1, 0x3FC49C0C6CF5CE2D,
    0x3FC447E9C20375D5, 0x3FC3F4258B6931AE, 0x3FC3A0BFAAE8D7EE, 0x3FC34DB805B4AB88,
    0x3FC2FB0E847C2A65, 0x3FC2A8C3137A071A, 0x3FC256D5A2835EB7, 0x3FC2054625183C34,
    0x3FC1B41492757D42, 0x3FC16340E5A82D63, 0x3FC112CB1DA26EB9, 0x3FC0C2B33D5209BA,
    0x3FC072F94BB8BF85, 0x3FC0239D54067D2A, 0x3FBFA93ECB6B222C, 0x3FBF0BFF29520E1C,
    0x3FBE6F7BF29AA54B, 0x3FBDD3B56176E88F, 0x3FBD38ABB9BD91E5, 0x3FBC9E5F493B740A,
    0x3FBC04D0680B1015, 0x3FBB6BFF78F2E233, 0x3FBAD3ECE9CAF633, 0x3FBA3C9933EA6286,
    0x3FB9A604DC9D5B19, 0x3FB9103075A4A0AB, 0x3FB87B1C9DBF2852, 0x3FB7E6CA013EEFD6,
    0x3FB753395AAA1176, 0x3FB6C06B73694A4C, 0x3FB62E6124854D18, 0x3FB59D1B577466A4,
    0x3FB50C9B06FA2BAE, 0x3FB47CE1401B2213, 0x3FB3EDEF23269A86, 0x3FB35FC5E4D93E70,
    0x3FB2D266CF9B3111, 0x3FB245D344DD0D91, 0x3FB1BA0CBE97897D, 0x3FB12F14D0F2179D,
    0x3FB0A4ED2C159625, 0x3FB01B979E30E497, 0x3FAF262C2B6C6E35, 0x3FAE16D547B25181,
    0x3FAD092EFEADF162, 0x3FABFD3E0F282A2C, 0x3FAAF30790385F70, 0x3FA9EA90F9295563,
    0x3FA8E3E02A68B5AB, 0x3FA7DEFB77AF271E, 0x3FA6DBE9B398D064, 0x3FA5DAB23CF2ADD4,
    0x3FA4DB5D0E11275D, 0x3FA3DDF2CE98EECB, 0x3FA2E27CE83DF497, 0x3FA1E9059F1F6ABC,
    0x3FA0F1982E968011, 0x3F9FF881D718A5C4, 0x3F9E121ADB828C75, 0x3F9C301983CD091A,
    0x3F9A529F4E22EBF8, 0x3F9879D1B600C10A, 0x3F96A5DAF40BBF82, 0x3F94D6EAF2FBB064,
    0x3F930D388DAB5E13, 0x3F91490334603012, 0x3F8F152A4F72DD49, 0x3F8BA48D274F8FAC,
    0x3F8841040D8DA478, 0x3F84EB96421ACFE0, 0x3F81A59229952F92, 0x3F7CE160F8EC6837,
    0x3F769EA8D90CB85D, 0x3F708A1F03B0B1FD, 0x3F655F9F43C1B067, 0x3F54A605B6B9F70F,
), dtype=np.uint64).view(np.float64)


def _fast_normals(w: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The fast-path normal of each word of w, +-rabs * WI[idx], into out, and
    whether the word misses the fast path, rabs >= KI[idx]: 2 rabs + sign >=
    2 KI[idx], with KI looked up in out.  w and scratch, an int64 array of w's
    size, are overwritten; the sign bit goes to scratch and then to out's."""
    layer = np.bitwise_and(w, _LAYER, out=scratch.view(np.uint64)).view(np.int64)
    w >>= np.uint64(8)
    w &= _RABS_SIGN
    ki = _KI.take(layer, out=out.view(np.uint64), mode="clip")
    slow = np.greater_equal(w, np.left_shift(ki, np.uint64(1), out=ki))
    _WI.take(layer, out=out, mode="clip")
    sign = np.left_shift(w, np.uint64(63), out=layer.view(np.uint64))
    w >>= np.uint64(1)
    np.multiply(w, out, out=out)  # rabs as a double, times WI[idx]
    np.bitwise_xor(out.view(np.uint64), sign, out=out.view(np.uint64))
    return out, slow


def _runs(start: np.ndarray, count: np.ndarray, out=None) -> np.ndarray:
    """The ranges [start[i], start[i] + count[i]) of counts > 0, one after
    another, into out (new if not given): a running sum of steps of 1 with,
    at each range's first place, the jump from the previous range's last."""
    if out is None:
        out = np.empty(count.sum(), dtype=np.int64)
    out.fill(1)
    out[np.cumsum(count[:-1])] = start[1:] - (start[:-1] + count[:-1] - 1)
    out[:1] = start[:1]
    return np.cumsum(out, out=out)


class _WordBuffer:
    """Each row's first Philox words, read-only; a word past them is computed
    from its own Philox counter where it is read.

    doubles and normals write into out and gather their words through the
    (int64, uint64) scratch pair of out's size, rows of _gamma_rounds' workspace."""

    def __init__(self, seed: int, streams: np.ndarray, width: int):
        self.seed, self.streams = seed, streams
        self.words = _philox_words(seed, streams, 1, -(-width // 4))

    def at(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Word cols[i] of row rows[i]."""
        width = self.words.shape[1]
        w = self.words.take(rows * width + cols, mode="clip")
        past = np.flatnonzero(cols >= width)
        if past.size:
            r, c = rows[past], cols[past]
            w[past] = _philox_words(self.seed, self.streams[r], c // 4 + 1, 1)[np.arange(past.size), c % 4]
        return w

    def _gather(self, rows, pos, k, idx, w) -> np.ndarray:
        """Into w, words pos[i] to pos[i] + k[i] - 1 of row rows[i] for each
        k[i] > 0, flattened row by row.  idx, as long as w (k.sum()), holds
        the flat word indices in the block: a running sum of steps of 1 with,
        at each row's first word, the jump from the previous row's last.  A
        row that reads past the block then takes its words from at."""
        width = self.words.shape[1]
        self.words.take(_runs(rows * width + pos, k, idx), out=w, mode="clip")
        over = np.flatnonzero(pos + k > width)
        if over.size:
            w[_runs((np.cumsum(k) - k)[over], k[over])] = self.at(np.repeat(rows[over], k[over]), _runs(pos[over], k[over]))
        return w

    def doubles(self, rows: np.ndarray, pos: np.ndarray, k: np.ndarray, out, scratch) -> np.ndarray:
        """k[i] > 0 doubles of row rows[i] from word pos[i] on, flattened row by row."""
        return _doubles(self._gather(rows, pos, k, *scratch), out)

    def normals(self, rows: np.ndarray, pos: np.ndarray, k: np.ndarray, out, scratch) -> tuple[np.ndarray, np.ndarray]:
        """k[i] > 0 standard normals of row rows[i] from word pos[i] on, as
        numpy's Generator.standard_normal draws them, flattened row by row;
        and the word position after each row's last one.

        The k[i] words from pos[i] on are read as fast-path normals, in one
        pass.  Every word among them that misses the fast path is a
        candidate, and _place_slow takes all candidates down the slow path
        at once and places every output.  The rows whose words read make
        fewer than k[i] outputs draw the rest in one call on those rows
        alone."""
        idx, w = scratch
        slow = np.flatnonzero(_fast_normals(self._gather(rows, pos, k, idx, w), out, idx)[1])
        end = np.cumsum(k)
        p = pos + k
        if slow.size:
            r, over, short = self._place_slow(rows, pos, k, end, slow, out, scratch)
            p[r] += over
            rest = np.flatnonzero(short)
            if rest.size:
                r, count = r[rest], short[rest]
                z, i, u = np.empty((3, count.sum()), dtype=np.int64)
                out[_runs(end[r] - count, count)], p[r] = self.normals(
                    rows[r], p[r], count, z.view(np.float64), (i, u.view(np.uint64))
                )
        return out, p

    def _place_slow(self, rows, pos, k, end, c, out, scratch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Take the slow words at flat places c of normals' words, in one
        call, and place every output in out; return the rows with a slow
        word, the words each reads past its k[i], and the outputs its words
        read do not make.

        A candidate that an earlier slow word of its row reads as its wedge
        double or a tail pair is consumed, not a normal's word, and is
        dropped: a running maximum of the kept candidates' ends (the word
        after the last one each reads, capped at its row's end) is taken
        until the kept set holds still.  A kept word's normal, if it makes
        one, replaces its fast value, and the words it reads move its row's
        later outputs along by the words it reads less the normal it makes;
        one gather over the moved outputs, through the scratch pair, then
        puts every value in place."""
        r = np.searchsorted(end, c, side="right")
        made, x, used = self._slow_normals(rows[r], pos[r] + k[r] - end[r] + c)
        stop = np.minimum(c + used, end[r])
        kept = np.ones(c.size, dtype=bool)
        while True:
            # rows lie in flat order and each end is capped at its row's: one
            # running maximum over every row, with no segments
            reach = np.maximum.accumulate(np.where(kept, stop, 0))
            now = np.append(True, c[1:] >= reach[:-1])
            if np.array_equal(now, kept):
                break
            kept = now
        c, r, made, x, used = c[kept], r[kept], made[kept], x[kept], used[kept]
        out[c[made]] = x[made]
        step = used - made  # at least 1, so the running sum rises strictly
        moved = np.cumsum(step)
        first = np.append(True, r[1:] != r[:-1])
        moved -= np.maximum.accumulate(np.where(first, moved - step, 0))  # each word's move with its row's earlier ones
        at = c + made - (moved - step)  # the output after the word's own
        last = np.flatnonzero(np.append(first[1:], True))
        upto = np.append(at[1:], 0)
        upto[last] = end[r[last]]
        # the outputs from each word's to the next's, or its row's end, read
        # the word that many places on; past the words a row read, they read
        # anything, and normals' call on the short rows writes over them
        seg = np.flatnonzero(upto - at)
        count = (upto - at)[seg]
        idx, w = scratch[0][: count.sum()], scratch[1][: count.sum()]
        value = out.take(_runs((at + moved)[seg], count, idx), out=w.view(np.float64), mode="clip")
        out[_runs(at[seg], count, idx)] = value
        over = np.maximum(c[last] + used[last] - end[r[last]], 0)
        return r[last], over, moved[last] - over

    def _slow_normals(self, rows: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The slow path of the ziggurat word at pos[i] of row rows[i]: whether
        it makes a normal, the normal, and the words it reads.

        exp and log1p come from math, the libm functions numpy's C calls.
        """
        w = self.at(rows, pos)
        idx = (w & _LAYER).astype(np.intp)
        rabs = (w >> np.uint64(9)) & _RABS
        x = _fast_normals(w, np.empty(w.size), np.empty(w.size, dtype=np.int64))[0]
        # the wedge of layer idx > 0: one double against the density
        u = _doubles(self.at(rows, pos + 1))
        density = np.array([math.exp(e) for e in (-0.5 * x * x).tolist()])
        made = (_FI[idx - 1] - _FI[idx]) * u + _FI[idx] < density
        used = np.full(rows.size, 2)
        # the tail beyond R of layer 0: pairs of doubles until one is accepted
        tail = np.flatnonzero(idx == 0)
        made[tail], used[tail] = True, 1
        while tail.size:
            at = pos[tail] + used[tail]
            a = _doubles(self.at(rows[tail], at)).tolist()
            b = _doubles(self.at(rows[tail], at + 1)).tolist()
            xx = np.array([-_NOR_INV_R * math.log1p(-v) for v in a])
            yy = np.array([-math.log1p(-v) for v in b])
            ok = yy + yy > xx * xx
            beyond = _NOR_R + xx[ok]
            # the sign is bit 8 of rabs, not the word's sign bit
            x[tail[ok]] = np.where((rabs[tail[ok]] >> np.uint64(8)) & np.uint64(1), -beyond, beyond)
            used[tail] += 2
            tail = tail[~ok]
        return made, x, used


class _GeneratorWords:
    """_gamma_rounds' one row of words, drawn from a Generator as asked for."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def doubles(self, rows, pos, k, out, scratch):
        return self.rng.random(out=out)

    def normals(self, rows, pos, k, out, scratch):
        return self.rng.standard_normal(out=out), pos


# spare words in a row's word block, as a share of its boost block and first
# round: later rounds and slow ziggurat words mostly fit in them, and a word
# past them is computed from its own Philox counter each time it is read
_GAMMA_SPARE = 0.125


def _gamma_rounds(shape: float, words, rows: int, n: int) -> np.ndarray:
    """rows x n Gamma(shape, 1) draws by the squeeze-free Marsaglia-Tsang
    method, row i from row i of words (a _WordBuffer, or _GeneratorWords on
    one Generator).  Vectorized rejection in rounds: each reads a row's
    normals, then its doubles, one of each per value the row lacks, so a row
    is a pure function of its own words.

    The rounds' per-value arrays are rows of one workspace, written in place:
    the normals z, the doubles u, an int64 and a uint64 row through which a
    _WordBuffer gathers its words and which then hold v = (1 + c z)**3 and the
    accept test's sums, and for shape < 1 the boost block.  The first round
    draws for every value, so it needs no index array and takes the output
    itself as scratch; later ones draw for the few values still missing.
    The output is allocated after the words, when the Philox rounds'
    buffers are gone."""
    boosted = shape < 1.0
    flat = np.empty(rows * n)
    work = np.empty((5 if boosted else 4, rows * n))
    idx, w = work[2].view(np.int64), work[3].view(np.uint64)  # v's and a's rows
    pos = np.zeros(rows, dtype=np.int64)
    q = shape
    if boosted:
        # Gamma(q) = Gamma(q + 1) * U ** (1/q); consume the boost block first
        boost = words.doubles(np.arange(rows), pos, np.full(rows, n), work[4], (idx, w))
        boost **= 1.0 / q
        pos += n
        q = q + 1.0
    d = q - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    todo = None  # every value in the first round, then the indices still to draw
    while todo is None or todo.size:
        if todo is None:
            live, k = np.arange(rows), np.full(rows, n)
        else:
            k = np.bincount(todo // n, minlength=rows)
            live = np.flatnonzero(k)
            k = k[live]
        m = k.sum()
        z, u, v, a = work[:4, :m]
        scratch = (idx[:m], w[:m])
        pos[live] = words.normals(live, pos[live], k, z, scratch)[1]
        words.doubles(live, pos[live], k, u, scratch)
        pos[live] += k
        # accept v = (1 + c z)**3 > 0 where log u < z * z / 2 + d (1 - v + log v)
        np.multiply(z, c, out=v)
        v += 1.0
        v **= 3
        ok = v > 0.0
        v[~ok] = 1.0
        np.multiply(z, 0.5, out=a)
        a *= z
        np.subtract(1.0, v, out=z)
        z += np.log(v, out=flat if todo is None else None)
        z *= d
        a += z
        accept = np.less(np.log(u, out=u), a)
        accept &= ok
        if todo is None:
            np.multiply(v, d, out=flat)  # where rejected, a later round writes over it
            todo = np.flatnonzero(~accept)
        else:
            flat[todo[accept]] = d * v[accept]
            todo = todo[~accept]
    if boosted:
        flat *= boost
    return flat.reshape(rows, n)
