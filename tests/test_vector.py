"""Vector semantics: elementwise ops, permute/gather, immutability."""
import numpy as np
import pytest

from repro import CapabilityError, Machine, Vector


class TestBasics:
    def test_vector_is_one_dimensional(self, scan_machine):
        with pytest.raises(ValueError, match="1-D"):
            Vector(scan_machine, np.zeros((2, 2)))

    def test_data_is_read_only(self, scan_machine):
        v = scan_machine.vector([1, 2, 3])
        with pytest.raises(ValueError):
            v.data[0] = 9

    def test_to_array_is_a_copy(self, scan_machine):
        v = scan_machine.vector([1, 2, 3])
        a = v.to_array()
        a[0] = 99
        assert v.to_list() == [1, 2, 3]

    def test_unhashable(self, scan_machine):
        with pytest.raises(TypeError):
            hash(scan_machine.vector([1]))

    def test_mixed_machines_rejected(self):
        a = Machine("scan").vector([1, 2])
        b = Machine("scan").vector([3, 4])
        with pytest.raises(ValueError, match="different machines"):
            _ = a + b

    def test_length_mismatch_rejected(self, scan_machine):
        with pytest.raises(ValueError, match="length mismatch"):
            _ = scan_machine.vector([1, 2]) + scan_machine.vector([1, 2, 3])


class TestElementwise:
    def test_paper_addition_example(self, scan_machine):
        a = scan_machine.vector([5, 1, 3, 4, 3, 9, 2, 6])
        b = scan_machine.vector([2, 5, 3, 8, 1, 3, 6, 2])
        assert (a + b).to_list() == [7, 6, 6, 12, 4, 12, 8, 8]

    @pytest.mark.parametrize("op,expected", [
        (lambda a, b: a - b, [3, -4]),
        (lambda a, b: a * b, [10, 5]),
        (lambda a, b: a // b, [2, 0]),
        (lambda a, b: a % b, [1, 1]),
        (lambda a, b: a.minimum(b), [2, 1]),
        (lambda a, b: a.maximum(b), [5, 5]),
    ])
    def test_arithmetic(self, scan_machine, op, expected):
        a = scan_machine.vector([5, 1])
        b = scan_machine.vector([2, 5])
        assert op(a, b).to_list() == expected

    def test_scalar_operands(self, scan_machine):
        v = scan_machine.vector([1, 2, 3])
        assert (v + 10).to_list() == [11, 12, 13]
        assert (10 - v).to_list() == [9, 8, 7]
        assert (v * 2).to_list() == [2, 4, 6]
        assert (2 * v).to_list() == [2, 4, 6]

    def test_comparisons_produce_flags(self, scan_machine):
        v = scan_machine.vector([1, 5, 3])
        lt = v < 3
        assert lt.dtype == np.bool_
        assert lt.to_list() == [True, False, False]
        assert (v == 5).to_list() == [False, True, False]
        assert (v != 5).to_list() == [True, False, True]
        assert (v >= 3).to_list() == [False, True, True]

    def test_boolean_logic(self, scan_machine):
        a = scan_machine.flags([1, 1, 0, 0])
        b = scan_machine.flags([1, 0, 1, 0])
        assert (a & b).to_list() == [True, False, False, False]
        assert (a | b).to_list() == [True, True, True, False]
        assert (a ^ b).to_list() == [False, True, True, False]
        assert (~a).to_list() == [False, False, True, True]

    def test_bitwise_on_integers(self, scan_machine):
        v = scan_machine.vector([0b110, 0b011])
        assert (v & 0b010).to_list() == [0b010, 0b010]
        assert (v | 0b001).to_list() == [0b111, 0b011]
        assert (v >> 1).to_list() == [0b11, 0b01]
        assert (v << 1).to_list() == [0b1100, 0b0110]

    def test_bit_extraction(self, scan_machine):
        v = scan_machine.vector([5, 7, 3, 1, 4, 2, 7, 2])
        assert v.bit(0).to_list() == [True, True, True, True, False, False, True, False]

    def test_where_requires_flags(self, scan_machine):
        v = scan_machine.vector([1, 2])
        with pytest.raises(TypeError, match="boolean"):
            v.where(1, 0)

    def test_where(self, scan_machine):
        f = scan_machine.flags([1, 0, 1])
        a = scan_machine.vector([10, 20, 30])
        assert f.where(a, 0).to_list() == [10, 0, 30]
        assert f.where(1, a).to_list() == [1, 20, 1]

    def test_neg_abs(self, scan_machine):
        v = scan_machine.vector([3, -4])
        assert (-v).to_list() == [-3, 4]
        assert abs(v).to_list() == [3, 4]


class TestReflectedOperators:
    """scalar <op> vector for the division family, including the dtype
    boundaries NumPy promotion dictates."""

    def test_rtruediv_promotes_ints_to_float(self, scan_machine):
        v = scan_machine.vector([1, 2, 4])
        out = 10 / v
        assert out.dtype == np.float64
        assert out.to_list() == [10.0, 5.0, 2.5]

    def test_rtruediv_on_floats(self, scan_machine):
        v = scan_machine.vector([0.5, 2.0])
        assert (1.0 / v).to_list() == [2.0, 0.5]

    def test_rfloordiv_keeps_integer_dtype(self, scan_machine):
        v = scan_machine.vector(np.array([3, 4, 7], dtype=np.uint8))
        out = 10 // v
        assert out.dtype == np.uint8
        assert out.to_list() == [3, 2, 1]

    def test_rfloordiv_negative_rounds_toward_minus_inf(self, scan_machine):
        v = scan_machine.vector([3, -3])
        assert (10 // v).to_list() == [3, -4]

    def test_rmod_follows_divisor_sign(self, scan_machine):
        v = scan_machine.vector([3, -3, 7])
        out = 10 % v
        assert out.dtype == np.int64
        assert out.to_list() == [1, -2, 3]

    def test_rmod_float_promotion(self, scan_machine):
        v = scan_machine.vector([2.5, 4.0])
        out = 10 % v
        assert out.dtype == np.float64
        assert out.to_list() == [0.0, 2.0]

    def test_reflected_matches_eager_machine(self):
        """The reflected ops agree between an eager numpy machine and a
        blocked one, where they defer."""
        from repro import Machine
        eager = Machine("scan", backend="numpy")
        lazy = Machine("scan", backend="blocked")
        for xs in ([2, 3, 6], np.array([7, 8], dtype=np.int16)):
            lazy_out = (100 // (10 % (1 + lazy.vector(xs))))
            eager_out = (100 // (10 % (1 + eager.vector(xs))))
            assert lazy_out.dtype == eager_out.dtype
            assert lazy_out.to_list() == eager_out.to_list()

    def test_narrow_dtype_scalar_boundary(self, scan_machine):
        # NEP 50: an in-range python-int scalar adopts the vector dtype;
        # an out-of-range one is rejected at build, same as eager NumPy
        v = scan_machine.vector(np.array([100, 200], dtype=np.uint8))
        out = 250 - v
        assert out.dtype == np.uint8
        assert out.to_list() == [150, 50]
        with pytest.raises(OverflowError):
            300 - v


class TestPermute:
    def test_paper_permute_example(self, scan_machine):
        a = scan_machine.vector([10, 11, 12, 13, 14, 15, 16, 17])
        i = scan_machine.vector([2, 5, 4, 3, 1, 6, 0, 7])
        out = a.permute(i)
        assert out.to_list() == [16, 14, 10, 13, 12, 11, 15, 17]

    def test_duplicate_indices_rejected(self, scan_machine):
        v = scan_machine.vector([1, 2, 3])
        with pytest.raises(CapabilityError, match="unique"):
            v.permute(scan_machine.vector([0, 0, 1]))

    def test_out_of_range_rejected(self, scan_machine):
        v = scan_machine.vector([1, 2])
        with pytest.raises(IndexError):
            v.permute(scan_machine.vector([0, 5]))

    def test_permute_into_longer_vector(self, scan_machine):
        v = scan_machine.vector([7, 8])
        out = v.permute(scan_machine.vector([3, 0]), length=5, default=-1)
        assert out.to_list() == [8, -1, -1, 7, -1]

    def test_reverse(self, scan_machine):
        v = scan_machine.vector([1, 2, 3])
        assert v.reverse().to_list() == [3, 2, 1]

    def test_shift_up(self, scan_machine):
        v = scan_machine.vector([1, 2, 3, 4])
        assert v.shift(1).to_list() == [0, 1, 2, 3]
        assert v.shift(2, fill=-1).to_list() == [-1, -1, 1, 2]

    def test_shift_down(self, scan_machine):
        v = scan_machine.vector([1, 2, 3, 4])
        assert v.shift(-1).to_list() == [2, 3, 4, 0]

    def test_shift_past_length(self, scan_machine):
        v = scan_machine.vector([1, 2])
        assert v.shift(5, fill=9).to_list() == [9, 9]
        assert v.shift(-5, fill=9).to_list() == [9, 9]

    def test_shift_zero(self, scan_machine):
        v = scan_machine.vector([1, 2])
        assert v.shift(0).to_list() == [1, 2]

    def test_shift_charges_one_permute(self, scan_machine):
        scan_machine.vector([1, 2, 3]).shift(1)
        assert scan_machine.counter.by_kind["permute"] == 1

    def test_gather_unique(self, scan_machine):
        v = scan_machine.vector([10, 20, 30])
        assert v.gather(scan_machine.vector([2, 0, 1])).to_list() == [30, 10, 20]

    def test_single_cell_access(self, scan_machine):
        v = scan_machine.vector([4, 5, 6])
        assert v.first() == 4
        assert v.last() == 6
        assert v.get(1) == 5
        assert scan_machine.counter.by_kind["memory"] == 3


class TestCombineWrite:
    @pytest.mark.parametrize("op,expected", [
        ("min", [1, 5, 0]),
        ("max", [3, 5, 0]),
        ("sum", [4, 5, 0]),
    ])
    def test_combining_ops(self, crcw_machine, op, expected):
        v = crcw_machine.vector([3, 1, 5])
        idx = crcw_machine.vector([0, 0, 1])
        out = v.combine_write(idx, length=3, op=op, default=0)
        assert out.to_list() == expected

    def test_any_takes_some_value(self, crcw_machine):
        v = crcw_machine.vector([3, 1, 5])
        idx = crcw_machine.vector([0, 0, 1])
        out = v.combine_write(idx, length=2, op="any")
        assert out.to_list()[0] in (1, 3)
        assert out.to_list()[1] == 5

    def test_unknown_op_rejected(self, crcw_machine):
        v = crcw_machine.vector([1])
        with pytest.raises(ValueError, match="unknown combine op"):
            v.combine_write(crcw_machine.vector([0]), length=1, op="xor")
