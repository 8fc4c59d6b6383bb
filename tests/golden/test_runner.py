"""Tests for golden execution and MemView semantics."""

import pytest

from repro.compiler import MemorySpec
from repro.golden import GoldenError, MemView, run_golden
from repro.util.files import MemoryImage


class TestMemView:
    def test_signed_view(self):
        image = MemoryImage(8, 4, words=[0xFF, 0x7F, 0, 1])
        view = MemView(image, signed=True)
        assert view[0] == -1
        assert view[1] == 127

    def test_unsigned_view(self):
        image = MemoryImage(8, 2, words=[0xFF, 1])
        view = MemView(image, signed=False)
        assert view[0] == 255

    def test_write_masks(self):
        image = MemoryImage(8, 2)
        view = MemView(image)
        view[0] = -1
        assert image.read(0) == 0xFF
        view[1] = 0x1FF
        assert image.read(1) == 0xFF

    def test_len_and_iter(self):
        image = MemoryImage(8, 3, words=[1, 2, 3])
        view = MemView(image)
        assert len(view) == 3
        assert list(view) == [1, 2, 3]

    @pytest.mark.parametrize("index", [-1, -4, 4, 99])
    @pytest.mark.parametrize("signed", [True, False])
    def test_out_of_range_raises_the_image_error(self, index, signed):
        image = MemoryImage(8, 4, name="buf")
        image.watch(lambda address, value: None)
        plain = MemoryImage(8, 4, name="buf")
        with pytest.raises(IndexError) as expected:
            image.read(index)
        for target in (image, plain):
            view = MemView(target, signed=signed)
            with pytest.raises(IndexError) as read:
                view[index]
            with pytest.raises(IndexError) as write:
                view[index] = 1
            assert str(read.value) == str(write.value) \
                == str(expected.value)
        assert plain.words() == [0] * 4

    @pytest.mark.parametrize("width", [1, 8, 13, 32])
    def test_reads_match_the_image_accessors(self, width):
        top = (1 << width) - 1
        words = sorted({0, 1, top >> 1, (top >> 1) + 1, top})
        image = MemoryImage(width, len(words), words=words)
        signed, unsigned = MemView(image), MemView(image, signed=False)
        for address in range(len(words)):
            assert signed[address] == image.read_signed(address)
            assert unsigned[address] == image.read(address)
        assert signed[len(words) - 1] == -1
        assert unsigned[len(words) - 1] == top

    def test_writes_mask_to_the_width(self):
        image = MemoryImage(12, 4)
        view = MemView(image)
        for address, value in enumerate([-1, 0x1ABC, -2048, 4095]):
            view[address] = value
        assert image.words() == [0xFFF, 0xABC, 0x800, 0xFFF]
        assert list(view) == [-1, -1348, -2048, -1]

    def test_watchers_see_every_write(self):
        image = MemoryImage(8, 4)
        seen = []
        image.watch(lambda address, value: seen.append((address, value)))
        view = MemView(image)
        view[0] = 0x1FF
        view[3] = -2
        view[0] = 5
        assert seen == [(0, 0xFF), (3, 0xFE), (0, 5)]
        assert image.words() == [5, 0, 0, 0xFE]


class TestRunGolden:
    ARRAYS = {
        "src": MemorySpec(16, 4, signed=False, role="input"),
        "dst": MemorySpec(16, 4, role="output"),
    }

    @staticmethod
    def double(src, dst, n=4):
        for i in range(n):
            dst[i] = src[i] * 2

    def images(self):
        return {
            "src": MemoryImage(16, 4, words=[1, 2, 3, 4], name="src"),
            "dst": MemoryImage(16, 4, name="dst"),
        }

    def test_executes_over_images(self):
        images = self.images()
        run_golden(self.double, self.ARRAYS, images)
        assert images["dst"].words() == [2, 4, 6, 8]

    def test_param_overrides_default(self):
        images = self.images()
        run_golden(self.double, self.ARRAYS, images, params={"n": 2})
        assert images["dst"].words() == [2, 4, 0, 0]

    def test_missing_image_reported(self):
        with pytest.raises(GoldenError, match="no memory image"):
            run_golden(self.double, self.ARRAYS, {"src": self.images()["src"]})

    def test_shape_mismatch_reported(self):
        images = self.images()
        images["src"] = MemoryImage(16, 9, name="src")
        with pytest.raises(GoldenError, match="spec says"):
            run_golden(self.double, self.ARRAYS, images)

    def test_missing_scalar_reported(self):
        def kernel(src, dst, k):
            dst[0] = src[0] + k

        with pytest.raises(GoldenError, match="no array, value or default"):
            run_golden(kernel, self.ARRAYS, self.images())

    def test_signedness_follows_spec(self):
        arrays = {
            "src": MemorySpec(8, 1, signed=True, role="input"),
            "dst": MemorySpec(16, 1, role="output"),
        }

        def kernel(src, dst):
            dst[0] = src[0]

        images = {"src": MemoryImage(8, 1, words=[0xFF], name="src"),
                  "dst": MemoryImage(16, 1, name="dst")}
        run_golden(kernel, arrays, images)
        assert images["dst"].read_signed(0) == -1
