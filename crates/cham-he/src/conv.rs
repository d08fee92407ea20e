//! 2-D convolution via coefficient encoding — the paper's "Alg. 1 can be
//! extended to other linear functions, such as 2-D and 3-D convolutions
//! through encoding the original tensors in similar ways" (§II-E, citing
//! Cheetah).
//!
//! An `H × W` image is flattened into a polynomial (`x[i][j] → X^{iW+j}`)
//! and a `k × k` kernel is laid out reversed (`w[a][b] →
//! X^{(k−1−a)W + (k−1−b)}`). One polynomial product then places every
//! *valid* convolution output `O[i][j] = Σ w[a][b]·x[i+a][j+b]` at
//! coefficient `(i+k−1)·W + (j+k−1)`. The outputs are pulled out with
//! [`crate::extract::extract_lwe`] at those indices and re-packed —
//! exercising the general-index extraction path of the conversion layer.

use crate::ciphertext::RlweCiphertext;
use crate::encoding::{CoeffEncoder, Plaintext};
use crate::encrypt::{Decryptor, Encryptor};
use crate::extract::extract_lwe;
use crate::keys::GaloisKeys;
use crate::ops::{mul_plain, rescale};
use crate::pack::{pack_lwes, PackedRlwe};
use crate::params::ChamParams;
use crate::{HeError, Result};
use rand::Rng;

/// A dense 2-D image over `Z_t`, row-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    height: usize,
    width: usize,
    data: Vec<u64>,
}

impl Image {
    /// Builds an image from row-major data.
    ///
    /// # Errors
    /// [`HeError::ShapeMismatch`] when `data.len() != height * width`.
    pub fn from_data(height: usize, width: usize, data: Vec<u64>) -> Result<Self> {
        if data.len() != height * width {
            return Err(HeError::ShapeMismatch {
                expected: height * width,
                got: data.len(),
            });
        }
        Ok(Self {
            height,
            width,
            data,
        })
    }

    /// A random image with entries below `t`.
    pub fn random<R: Rng + ?Sized>(height: usize, width: usize, t: u64, rng: &mut R) -> Self {
        let data = (0..height * width).map(|_| rng.gen_range(0..t)).collect();
        Self {
            height,
            width,
            data,
        }
    }

    /// Pixel at `(i, j)`.
    ///
    /// # Panics
    /// Panics when out of range.
    pub fn at(&self, i: usize, j: usize) -> u64 {
        self.data[i * self.width + j]
    }

    /// Plain valid-mode 2-D convolution (reference oracle).
    ///
    /// # Errors
    /// [`HeError::InvalidParams`] for an empty kernel;
    /// [`HeError::ShapeMismatch`] when the kernel is larger than the image.
    pub fn conv2d_plain(&self, kernel: &Image, t: &cham_math::Modulus) -> Result<Image> {
        check_non_empty(kernel.height, kernel.width)?;
        if kernel.height > self.height || kernel.width > self.width {
            return Err(HeError::ShapeMismatch {
                expected: self.height * self.width,
                got: kernel.height * kernel.width,
            });
        }
        let oh = self.height - kernel.height + 1;
        let ow = self.width - kernel.width + 1;
        let mut out = vec![0u64; oh * ow];
        for i in 0..oh {
            for j in 0..ow {
                let mut acc = 0u64;
                for a in 0..kernel.height {
                    for b in 0..kernel.width {
                        acc = t.add(acc, t.mul(kernel.at(a, b), self.at(i + a, j + b)));
                    }
                }
                out[i * ow + j] = acc;
            }
        }
        Image::from_data(oh, ow, out)
    }
}

/// An image or kernel with a zero dimension has no valid convolution.
fn check_non_empty(height: usize, width: usize) -> Result<()> {
    if height == 0 || width == 0 {
        return Err(HeError::InvalidParams("image and kernel must be non-empty"));
    }
    Ok(())
}

/// Homomorphic 2-D convolution engine.
#[derive(Debug, Clone)]
pub struct Conv2d {
    params: ChamParams,
    coder: CoeffEncoder,
}

impl Conv2d {
    /// Creates a convolution engine.
    pub fn new(params: &ChamParams) -> Self {
        Self {
            params: params.clone(),
            coder: CoeffEncoder::new(params),
        }
    }

    fn check_fit(&self, img_h: usize, img_w: usize) -> Result<()> {
        check_non_empty(img_h, img_w)?;
        if img_h * img_w > self.params.degree() {
            return Err(HeError::InvalidParams(
                "image does not fit in one ciphertext (tile it first)",
            ));
        }
        Ok(())
    }

    /// Encrypts an image (flattened coefficient layout, augmented basis).
    ///
    /// # Errors
    /// [`HeError::InvalidParams`] when the image is empty or exceeds the
    /// ring degree.
    pub fn encrypt_image<R: Rng + ?Sized>(
        &self,
        img: &Image,
        enc: &Encryptor,
        rng: &mut R,
    ) -> Result<RlweCiphertext> {
        self.check_fit(img.height, img.width)?;
        let pt = self.coder.encode_vector(&img.data)?;
        Ok(enc.encrypt_augmented(&pt, rng))
    }

    /// Encodes a kernel for an image of width `img_w` (reversed layout).
    ///
    /// # Errors
    /// [`HeError::InvalidParams`] when the kernel is empty or its footprint
    /// exceeds the ring degree.
    pub fn encode_kernel(&self, kernel: &Image, img_w: usize) -> Result<Plaintext> {
        check_non_empty(kernel.height, kernel.width)?;
        let n = self.params.degree();
        let footprint = (kernel.height - 1) * img_w + kernel.width;
        if footprint > n {
            return Err(HeError::InvalidParams(
                "kernel footprint exceeds the ring degree",
            ));
        }
        let mut vals = vec![0u64; n];
        let t = self.params.plain_modulus();
        for a in 0..kernel.height {
            for b in 0..kernel.width {
                let pos = (kernel.height - 1 - a) * img_w + (kernel.width - 1 - b);
                vals[pos] = t.reduce(kernel.at(a, b));
            }
        }
        Ok(Plaintext::from_values(vals))
    }

    /// Homomorphic valid-mode convolution: multiply, rescale, extract every
    /// output coefficient, and pack the outputs into RLWE ciphertexts in
    /// row-major order.
    ///
    /// # Errors
    /// Shape errors; missing Galois keys for packing.
    pub fn convolve(
        &self,
        ct_img: &RlweCiphertext,
        kernel: &Image,
        img_h: usize,
        img_w: usize,
        gkeys: &GaloisKeys,
    ) -> Result<ConvResult> {
        self.check_fit(img_h, img_w)?;
        if kernel.height > img_h || kernel.width > img_w {
            return Err(HeError::ShapeMismatch {
                expected: img_h * img_w,
                got: kernel.height * kernel.width,
            });
        }
        let pt_k = self.encode_kernel(kernel, img_w)?;
        let prod = mul_plain(ct_img, &pt_k, &self.params)?;
        let prod = rescale(&prod, &self.params)?;
        let oh = img_h - kernel.height + 1;
        let ow = img_w - kernel.width + 1;
        let mut lwes = Vec::with_capacity(oh * ow);
        for i in 0..oh {
            for j in 0..ow {
                let idx = (i + kernel.height - 1) * img_w + (j + kernel.width - 1);
                lwes.push(extract_lwe(&prod, idx)?);
            }
        }
        let n = self.params.degree();
        let packed = lwes
            .chunks(n)
            .map(|chunk| pack_lwes(chunk, gkeys, &self.params))
            .collect::<Result<Vec<_>>>()?;
        Ok(ConvResult {
            packed,
            out_h: oh,
            out_w: ow,
        })
    }

    /// Decrypts a convolution result back to an output image.
    ///
    /// # Errors
    /// Decode errors from the packing layer.
    pub fn decrypt_result(&self, res: &ConvResult, dec: &Decryptor) -> Result<Image> {
        let mut vals = Vec::with_capacity(res.out_h * res.out_w);
        for packed in &res.packed {
            let pt = dec.decrypt(&packed.ciphertext);
            vals.extend(packed.decode(&pt, &self.params)?);
        }
        vals.truncate(res.out_h * res.out_w);
        Image::from_data(res.out_h, res.out_w, vals)
    }
}

/// Packed homomorphic convolution output.
#[derive(Debug, Clone)]
pub struct ConvResult {
    /// Packed output ciphertexts in row-major output order.
    pub packed: Vec<PackedRlwe>,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::SecretKey;
    use rand::SeedableRng;

    fn setup() -> (
        ChamParams,
        Encryptor,
        Decryptor,
        GaloisKeys,
        rand::rngs::StdRng,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(909);
        let params = ChamParams::insecure_test_default().unwrap();
        let sk = SecretKey::generate(&params, &mut rng);
        let enc = Encryptor::new(&params, &sk);
        let dec = Decryptor::new(&params, &sk);
        let gkeys = GaloisKeys::generate_for_packing(&sk, params.max_pack_log(), &mut rng).unwrap();
        (params, enc, dec, gkeys, rng)
    }

    fn run_conv(h: usize, w: usize, kh: usize, kw: usize) {
        let (params, enc, dec, gkeys, mut rng) = setup();
        // Small pixel/weight magnitudes keep the products within Z_t
        // semantics (no modular wrap in the reference).
        let img = Image::random(h, w, 256, &mut rng);
        let ker = Image::random(kh, kw, 16, &mut rng);
        let c = Conv2d::new(&params);
        let ct = c.encrypt_image(&img, &enc, &mut rng).unwrap();
        let res = c.convolve(&ct, &ker, h, w, &gkeys).unwrap();
        let got = c.decrypt_result(&res, &dec).unwrap();
        let expect = img.conv2d_plain(&ker, params.plain_modulus()).unwrap();
        assert_eq!(got, expect, "h={h} w={w} kh={kh} kw={kw}");
    }

    #[test]
    fn conv_3x3_kernel() {
        run_conv(10, 10, 3, 3);
    }

    #[test]
    fn conv_rect_image_rect_kernel() {
        run_conv(8, 16, 2, 5);
    }

    #[test]
    fn conv_1x1_kernel_is_scaling() {
        run_conv(6, 6, 1, 1);
    }

    #[test]
    fn conv_kernel_equals_image() {
        run_conv(5, 5, 5, 5);
    }

    #[test]
    fn conv_validation() {
        let (params, enc, _, gkeys, mut rng) = setup();
        let c = Conv2d::new(&params);
        let big = Image::random(64, 64, 10, &mut rng); // 4096 > 256
        assert!(c.encrypt_image(&big, &enc, &mut rng).is_err());
        let img = Image::random(8, 8, 10, &mut rng);
        let ct = c.encrypt_image(&img, &enc, &mut rng).unwrap();
        let huge_kernel = Image::random(9, 9, 10, &mut rng);
        assert!(c.convolve(&ct, &huge_kernel, 8, 8, &gkeys).is_err());
        assert!(Image::from_data(2, 2, vec![1, 2, 3]).is_err());
        // An empty kernel or image is a typed error, not a panic or a
        // zero-filled output.
        let empty = Image::from_data(0, 0, vec![]).unwrap();
        assert!(c.convolve(&ct, &empty, 8, 8, &gkeys).is_err());
        let small = Image::random(4, 4, 10, &mut rng);
        assert!(small.conv2d_plain(&empty, params.plain_modulus()).is_err());
        assert!(c.encrypt_image(&empty, &enc, &mut rng).is_err());
    }

    #[test]
    fn plain_conv_oracle_identity_kernel() {
        let t = cham_math::Modulus::new(65537).unwrap();
        let img = Image::from_data(2, 2, vec![1, 2, 3, 4]).unwrap();
        let ker = Image::from_data(1, 1, vec![1]).unwrap();
        assert_eq!(img.conv2d_plain(&ker, &t).unwrap(), img);
    }
}
