import numpy as np
import pytest

from eqlines.hadamard import (
    HadamardError,
    OrderCapError,
    SignMatrix,
    check_modular_hadamard,
    from_recipe,
    kron_product,
    paley,
    parse_sign_matrix,
    render_sign_matrix,
    sylvester,
)


def test_sylvester_orders_and_validity():
    for k in range(5):
        h = sylvester(k)
        assert h.d == 2 ** k
        assert check_modular_hadamard(h, 0).valid


def test_sylvester_doubling_structure():
    h1 = sylvester(1).array
    h2 = sylvester(2).array
    assert np.array_equal(h2[:2, :2], h1)
    assert np.array_equal(h2[2:, 2:], -h1)


def test_paley1_valid():
    for q in [3, 7, 11, 19, 23]:
        h = paley(q, "I")
        assert h.d == q + 1
        assert check_modular_hadamard(h, 0).valid


def test_paley2_valid():
    for q in [5, 13, 17]:
        h = paley(q, "II")
        assert h.d == 2 * (q + 1)
        assert check_modular_hadamard(h, 0).valid


def test_paley_residue_class_enforced():
    with pytest.raises(HadamardError):
        paley(5, "I")  # needs q = 3 mod 4
    with pytest.raises(HadamardError):
        paley(7, "II")  # needs q = 1 mod 4
    with pytest.raises(HadamardError):
        paley(9, "I")  # not prime


def test_kron_product():
    h = kron_product(sylvester(1), sylvester(2))
    assert h.d == 8
    assert check_modular_hadamard(h, 0).valid


def test_modular_check_witness():
    bad = SignMatrix.from_array(np.array([[1, 1], [1, 1]]))
    cert = check_modular_hadamard(bad, 0)
    assert not cert.valid
    a, b, inner = cert.failure_witness
    assert (a, b) == (0, 1) and inner == 2


def test_modular_but_not_exact():
    # all-ones 3x3: off-diagonal column inner products are 3 = 0 mod 3
    m = SignMatrix.from_array(np.ones((3, 3), dtype=np.int64))
    assert check_modular_hadamard(m, 3).valid
    assert not check_modular_hadamard(m, 0).valid


def test_text_roundtrip():
    h = paley(7, "I")
    again = parse_sign_matrix(render_sign_matrix(h))
    assert np.array_equal(again.array, h.array)


@pytest.mark.parametrize("text", ["+- \n-+\n", "+-\n-+ \n", " +-\t\n\n\t-+\n"])
def test_parse_strips_every_line(text):
    assert parse_sign_matrix(text).array.tolist() == [[1, -1], [-1, 1]]


def test_parse_rejects_garbage():
    with pytest.raises(HadamardError):
        parse_sign_matrix("+-\n+\n")
    with pytest.raises(HadamardError):
        parse_sign_matrix("+x\n-+\n")


def test_recipes():
    assert from_recipe("sylvester:3").d == 8
    assert from_recipe("paley1:19").d == 20
    assert from_recipe("paley2:13").d == 28
    k = from_recipe("kron:sylvester:1,sylvester:2")
    assert k.d == 8
    with pytest.raises(HadamardError):
        from_recipe("nonsense:4")


def test_recipe_file(tmp_path):
    p = tmp_path / "m.had"
    p.write_text(render_sign_matrix(sylvester(2)))
    assert from_recipe(str(p)).d == 4


def test_order_cap():
    with pytest.raises(OrderCapError):
        sylvester(12, cap=256)


def test_sign_matrix_validation():
    with pytest.raises(HadamardError):
        SignMatrix.from_array(np.array([[1, 0], [1, 1]]))
    with pytest.raises(HadamardError):
        SignMatrix.from_array(np.array([[1, 1, 1], [1, 1, -1]]))
    # 257 and -255 are 1 and 1 in int8: checked before any cast
    for wraps in (257, -255):
        with pytest.raises(HadamardError):
            SignMatrix.from_array(np.array([[1, wraps], [1, -1]]))


def test_sign_matrix_holds_a_read_only_copy():
    a = np.array([[1, -1], [1, 1]])
    m = SignMatrix.from_array(a)
    a[0, 0] = -1
    assert m.array.dtype == np.int8 and not m.array.flags.writeable
    assert m.array.tolist() == [[1, -1], [1, 1]]


def test_trace():
    assert sylvester(1).trace() == 0
    assert SignMatrix.from_array(np.array([[-1, -1], [1, -1]])).trace() == -2
