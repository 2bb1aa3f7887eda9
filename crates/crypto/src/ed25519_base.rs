// Static tables of `crypto::ed25519`, included by `ed25519.rs`.
//
// Generated from the curve's definition by the test
// `ed25519::tests::static_tables_are_the_generated_source`; do not
// edit. After changing the generator, run that test with
// `DORDIS_REGENERATE_TABLES=1` to rewrite this file. Every element
// is its canonical representative in five radix-2^51 limbs.

/// `d = −121665/121666`, the curve's constant.
const D: Fe = Fe([0x34dca135978a3, 0x1a8283b156ebd, 0x5e7a26001c029, 0x739c663a03cbb, 0x52036cee2b6ff]);

/// `2d`.
const D2: Fe = Fe([0x69b9426b2f159, 0x35050762add7a, 0x3cf44c0038052, 0x6738cc7407977, 0x2406d9dc56dff]);

/// A square root of −1.
const SQRT_M1: Fe = Fe([0x61b274a0ea0b0, 0x0d5a5fc8f189d, 0x7ef5e9cbd0c60, 0x78595a6804c9e, 0x2b8324804fc1d]);

/// The base point `B`: `y = 4/5`, `x` even, `Z = 1`.
const BASE: Point = Point {
    x: Fe([0x62d608f25d51a, 0x412a4b4f6592a, 0x75b7171a4b31d, 0x1ff60527118fe, 0x216936d3cd6e5]),
    y: Fe([0x6666666666658, 0x4cccccccccccc, 0x1999999999999, 0x3333333333333, 0x6666666666666]),
    z: Fe([0x0000000000001, 0x0000000000000, 0x0000000000000, 0x0000000000000, 0x0000000000000]),
    t: Fe([0x68ab3a5b7dda3, 0x00eea2a5eadbb, 0x2af8df483c27e, 0x332b375274732, 0x67875f0fd78b7]),
};

/// `BASE_COMB[i][j]` is entry `j` of rows `i` and `32 + i`: `(j+1)·16^i·B`
/// and `(j+1)·16^(32+i)·B`, each as affine `(y−x, y+x, 2d·xy)`, limb by
/// limb (a `CombRow`). One row per radix-16 digit of a scalar, so
/// `s·B` is 64 additions and no doubling (61 440 bytes).
static BASE_COMB: [CombRow<6>; 32] = [
    // 16^0·B | 16^32·B
    [
        comb_entry(
            [
                [0x03905d740913e, 0x0ba2817d673a2, 0x23e2827f4e67c, 0x133d2e0c21a34, 0x44fd2f9298f81],
                [0x493c6f58c3b85, 0x0df7181c325f7, 0x0f50b0b3e4cb7, 0x5329385a44c32, 0x07cf9d3a33d4b],
                [0x11205877aaa68, 0x479955893d579, 0x50d66309b67a0, 0x2d42d0dbee5ee, 0x6f117b689f0c6],
            ],
            [
                [0x27562eb3dbe47, 0x291d7b4170be7, 0x5d1ca67dfa8e1, 0x2a88061f298a2, 0x1304e9e71627d],
                [0x304bfacad8ea2, 0x502917d108b07, 0x043176ca6dd0f, 0x5d5158f2c1d84, 0x2b5449e58eb3b],
                [0x014d26adc9cfe, 0x7f1691ba16f13, 0x5e71828f06eac, 0x349ed07f0fffc, 0x4468de2d7c2dd],
            ],
        ),
        comb_entry(
            [
                [0x1a56042b4d5a8, 0x189cc159ed153, 0x5b8deaa3cae04, 0x2aaf04f11b5d8, 0x6bb595a669c92],
                [0x4e7fc933c71d7, 0x2cf41feb6b244, 0x7581c0a7d1a76, 0x7172d534d32f0, 0x590c063fa87d2],
                [0x2a8b3a59b7a5f, 0x3abb359ef087f, 0x4f5a8c4db05af, 0x5b9a807d04205, 0x701af5b13ea50],
            ],
            [
                [0x3355e9419469e, 0x1847bb8ea8a37, 0x1fe6588cf9b71, 0x6b1c9d2db6b22, 0x6cce7c6ffb44b],
                [0x2d8c6f86307ce, 0x6286ba1850973, 0x5e9dcb08444d4, 0x1a96a543362b2, 0x5da6427e63247],
                [0x4c688deac22ca, 0x6f775c3ff0352, 0x565603ee419bb, 0x6544456c61c46, 0x58f29abfe79f2],
            ],
        ),
        comb_entry(
            [
                [0x11fe8a4fcd265, 0x7bcb8374faacc, 0x52f5af4ef4d4f, 0x5314098f98d10, 0x2ab91587555bd],
                [0x5b0a84cee9730, 0x61d10c97155e4, 0x4059cc8096a10, 0x47a608da8014f, 0x7a164e1b9a80f],
                [0x6933f0dd0d889, 0x44386bb4c4295, 0x3cb6d3162508c, 0x26368b872a2c6, 0x5a2826af12b9b],
            ],
            [
                [0x6cfab8de73e68, 0x3e6efced4bd21, 0x0056609500dbe, 0x71b7824ad85df, 0x577629c4a7f41],
                [0x264bf710ecdf6, 0x708c58527896b, 0x42ceae6c53394, 0x4381b21e82b6a, 0x6af93724185b4],
                [0x0024509c6a888, 0x2696ab12e6644, 0x0cca27f4b80d8, 0x0c7c1f11b119e, 0x701f25bb0caec],
            ],
        ),
        comb_entry(
            [
                [0x6050a056818bf, 0x62acc1f5532bf, 0x28141ccc9fa25, 0x24d61f471e683, 0x27933f4c7445a],
                [0x351b98efc099f, 0x68fbfa4a7050e, 0x42a49959d971b, 0x393e51a469efd, 0x680e910321e58],
                [0x3fbe9c476ff09, 0x0af6b982e4b42, 0x0ad1251ba78e5, 0x715aeedee7c88, 0x7f9d0cbf63553],
            ],
            [
                [0x0b0f8e4616ced, 0x1d3c4b50fb875, 0x2f29673dc0198, 0x5f4b0f1830ffa, 0x2e0c92bfbdc40],
                [0x0f6d97cbec113, 0x4ce97fb7c93a3, 0x139835a11281b, 0x728907ada9156, 0x720a5bc050955],
                [0x709439b805a35, 0x6ec48557f8187, 0x08a4d1ba13a2c, 0x076348a0bf9ae, 0x0e9b9cbb144ef],
            ],
        ),
        comb_entry(
            [
                [0x182c3a447d6ba, 0x22964e536eff2, 0x192821f540053, 0x2f9f19e788e5c, 0x154a7e73eb1b5],
                [0x2bc4408a5bb33, 0x078ebdda05442, 0x2ffb112354123, 0x375ee8df5862d, 0x2945ccf146e20],
                [0x3dbf1812a8285, 0x0fa17ba3f9797, 0x6f69cb49c3820, 0x34d5a0db3858d, 0x43aabe696b3bb],
            ],
            [
                [0x2d48ffb5720ad, 0x57b7f21a1df77, 0x5550effba0645, 0x5ec6a4098a931, 0x221104eb3f337],
                [0x69bd55db1beee, 0x6e14e47f731bd, 0x1a35e47270eac, 0x66f225478df8e, 0x366d44191cfd3],
                [0x41743f2bc8c14, 0x796b0ad8773c7, 0x29fee5cbb689b, 0x122665c178734, 0x4167a4e6bc593],
            ],
        ),
        comb_entry(
            [
                [0x006b67b7d8ca4, 0x084fa44e72933, 0x1154ee55d6f8a, 0x4425d842e7390, 0x38b64c41ae417],
                [0x4eeeb77157131, 0x1201915f10741, 0x1669cda6c9c56, 0x45ec032db346d, 0x51e57bb6a2cc3],
                [0x4326702ea4b71, 0x06834376030b5, 0x0ef0512f9c380, 0x0f1a9f2512584, 0x10b8e91a9f0d6],
            ],
            [
                [0x39d2876f62700, 0x001cecd1d6c87, 0x7f01a11747675, 0x2350da5a18190, 0x7938bb7e22552],
                [0x62665f8ce8fee, 0x29d101ac59857, 0x4d93bbba59ffc, 0x17b7897373f17, 0x34b33370cb7ed],
                [0x591ee8681d6cc, 0x39db0b4ea79b8, 0x202220f380842, 0x2f276ba42e0ac, 0x1176fc6e2dfe6],
            ],
        ),
        comb_entry(
            [
                [0x72c9aaa3221b1, 0x267774474f74d, 0x064b0e9b28085, 0x3f04ef53b27c9, 0x1d6edd5d2e531],
                [0x25cd0944ea3bf, 0x75673b81a4d63, 0x150b925d1c0d4, 0x13f38d9294114, 0x461bea69283c9],
                [0x36dc801b8b3a2, 0x0e0a7d4935e30, 0x1deb7cecc0d7d, 0x053a94e20dd2c, 0x7a9fbb1c6a0f9],
            ],
            [
                [0x76cd05b9c619b, 0x69654b0901695, 0x7a53710b77f27, 0x79a1ea7d28175, 0x08fc3a4c677d5],
                [0x0e28949770eb8, 0x5559e88147b72, 0x35e1e6e63ef30, 0x35b109aa7ff6f, 0x1f6a3e54f2690],
                [0x4c199d30734ea, 0x6c622cb9acc14, 0x5660a55030216, 0x068f1199f11fb, 0x4f2fad0116b90],
            ],
        ),
        comb_entry(
            [
                [0x75dedf39234d9, 0x01c36ab1f3c54, 0x0f08fee58f5da, 0x0e19613a0d637, 0x3a9024a1320e0],
                [0x7596604dd3e8f, 0x6fc510e058b36, 0x3670c8db2cc0d, 0x297d899ce332f, 0x0915e76061bce],
                [0x1f5d9c9a2911a, 0x7117994fafcf8, 0x2d8a8cae28dc5, 0x74ab1b2090c87, 0x26907c5c2ecc4],
            ],
            [
                [0x6b24194ae4e54, 0x2230afded8897, 0x23412617d5071, 0x3d5d30f35969b, 0x445484a4972ef],
                [0x4d91db73bb638, 0x55f82538112c5, 0x6d85a279815de, 0x740b7b0cd9cf9, 0x3451995f2944e],
                [0x2fcd09fea7d7c, 0x296126b9ed22a, 0x4a171012a05b2, 0x1db92c74d5523, 0x10b89ca604289],
            ],
        ),
    ],
    // 16^1·B | 16^33·B
    [
        comb_entry(
            [
                [0x051ca553e2df3, 0x174c90f166fd9, 0x223479e9c4a13, 0x441f35af20c99, 0x4cf210ec5a9a8],
                [0x504a52d9021f6, 0x66eb8d7f38645, 0x3482c26e7067c, 0x730ac3d1d21a1, 0x143b1cf8aa64f],
                [0x67c7d968acaab, 0x1c4e124e533f0, 0x06025d57d5096, 0x370e853e9a5f5, 0x21b546a337412],
            ],
            [
                [0x2426e3b646025, 0x2070b9c99f365, 0x5b7a914c849c6, 0x73ad12e7fe16e, 0x06409010bea8d],
                [0x4ded679d34aa0, 0x01989b673facf, 0x574643f302e7b, 0x7f7d29ad22b71, 0x2e05d9eaf61f6],
                [0x7901ad61beb59, 0x79cbb91015888, 0x729a09d987c66, 0x79312342a415b, 0x293c778cefe07],
            ],
        ),
        comb_entry(
            [
                [0x7f858a2888343, 0x2ca627da79529, 0x6fcd3eb383b51, 0x1b8faae1ee7da, 0x0a653ca5c9eab],
                [0x27a45d185218f, 0x708c09266a921, 0x0c787da6854dd, 0x4b280307504e6, 0x7e041577f86ee],
                [0x2a496ce5b67f3, 0x317aad2f2ccd6, 0x164b343fd524b, 0x659281e7614a5, 0x566943650813a],
            ],
            [
                [0x09e7007069096, 0x2bc9ca03130d0, 0x068051eab5d6c, 0x6af03f9ab8ad1, 0x0487f3f112815],
                [0x795d6a11ff200, 0x4562b02b922d8, 0x54e56d72dc343, 0x5a7c4f949904d, 0x50b8c2d031e47],
                [0x50c08068a4962, 0x26a2125934906, 0x5bf2375bff741, 0x2c58bd7a7a557, 0x4b0553b53cdba],
            ],
        ),
        comb_entry(
            [
                [0x0db0c26620798, 0x32c0dc6a95703, 0x2a3371d7570c7, 0x16a04c17d2780, 0x17e12bcd4653e],
                [0x2f9eb1dabb69d, 0x6b5fd0a7f8ace, 0x65b59b6e9c2d4, 0x13aa3d607ba93, 0x32a5351794117],
                [0x644a6df648437, 0x33101f7fbba74, 0x4e86a95c0ed95, 0x23465c292a056, 0x0900b3f78e4c6],
            ],
            [
                [0x5fcbe1b32ff79, 0x3e076a1f3738c, 0x01f981badd7aa, 0x4847e76953636, 0x35106cd551717],
                [0x5211b27c152d4, 0x137a35ec737e0, 0x1beae617b09a1, 0x4202f05965547, 0x054c8bdd50bd0],
                [0x0b12f1dcf073d, 0x476fed44ec714, 0x5013e692d82a2, 0x114ff6ad612e9, 0x72e82d5e5505c],
            ],
        ),
        comb_entry(
            [
                [0x51b9f679d651b, 0x42066685e4150, 0x22cc28f84232d, 0x38a6b00fabff4, 0x371f3acaed2dd],
                [0x00fbec816ad31, 0x37b1cddfc7da5, 0x3188fd54b6565, 0x49e07f38bb97b, 0x4314030b051e2],
                [0x0005efbf0bcad, 0x5da30e18bdaac, 0x2139a823adc3c, 0x338100fc819e8, 0x4c3a5ae1ce7b6],
            ],
            [
                [0x3697ff0d844c8, 0x39b2f39692d61, 0x7683c7eec4be1, 0x108e952a0e360, 0x7b7c242958ce7],
                [0x1cdfd69771d02, 0x1ad9f7e2fc01b, 0x2c4bb1d0409db, 0x430a62298360e, 0x2857bf1627500],
                [0x1903f0101689e, 0x277f0c200b3e4, 0x7ac3c6f5de77f, 0x06a5091772f9e, 0x510df84b485a0],
            ],
        ),
        comb_entry(
            [
                [0x0a434dcb8fa95, 0x7ad92d0816827, 0x5efa0b21c33d9, 0x2ad6f1c42ba14, 0x7c814db27262a],
                [0x075e4c93da0dd, 0x4ee372529b75f, 0x31b1182e4ca0a, 0x0c0c06b1fdbfa, 0x6de9c73dea66c],
                [0x104d5a04df8f2, 0x15620285a68f1, 0x5742663ebeeb9, 0x0827b645631aa, 0x5aac4a412f90b],
            ],
            [
                [0x133bb9277a1fa, 0x44c732246f4a8, 0x74bc569d3b0ed, 0x51d0d1e2a6e1a, 0x2d347144e482b],
                [0x3c887c70ac15e, 0x2ff7036e64496, 0x5e3306ec3ce95, 0x7c74d966f17f2, 0x4cf7ed0703b54],
                [0x47c6598fbee0f, 0x4556ab7c5ad7a, 0x1d84316791ccf, 0x5520849fb1209, 0x4e05e26ad0a1e],
            ],
        ),
        comb_entry(
            [
                [0x7326b3ac92908, 0x05ccc7c3c18c9, 0x0692e0d5546ca, 0x46123b59afaa5, 0x1b9da3fe189f6],
                [0x20d0abd7f5134, 0x65c3a75c8cc07, 0x662f58e022724, 0x11aef92c89cc3, 0x1c145cd274ba0],
                [0x0386475f3d743, 0x5ed5cbb3de65d, 0x16da078d96e2e, 0x2f0c1291c5b1c, 0x234929c1167d6],
            ],
            [
                [0x36b624b531f20, 0x1ceea13577b53, 0x08f2e010a69d8, 0x7c16df4fa9174, 0x618f1856880c8],
                [0x3c773e18fe6c0, 0x35a790e4ca306, 0x45aca0f8f11c4, 0x6dc1dfe9e2780, 0x1955875eb4cd4],
                [0x6de8f0e399799, 0x4881fb42f0db4, 0x0d58f75eb586a, 0x05759966c082f, 0x15f6beae2ae34],
            ],
        ),
        comb_entry(
            [
                [0x5ecaba077ade8, 0x5a33d6713b309, 0x5535e50e0fdde, 0x53d63f635bf14, 0x59c77b3aeb7c3],
                [0x45cc21d099fcf, 0x259851afca902, 0x091f80514d706, 0x1f74073e0f2a4, 0x4a5f28743b297],
                [0x5d725225ccf62, 0x03642a58bba75, 0x423e1f64468ce, 0x71dec59cfd6ad, 0x6f05606b4799f],
            ],
            [
                [0x3cb0c31ec3a62, 0x0a2271e7850c5, 0x76b0a920438ad, 0x140bc47625c1c, 0x28f76867ae2a9],
                [0x20f7b9245e215, 0x5bb3181b77753, 0x082c083cda184, 0x76d17427265f9, 0x6ba92fe962d90],
                [0x5f9655884e2aa, 0x37b7a8cb4a7c9, 0x7a79492f58bef, 0x1ebebacb65506, 0x6e8042ccb2b1b],
            ],
        ),
        comb_entry(
            [
                [0x69e92177ba962, 0x3a1bcb95c33ff, 0x60c411262bb9c, 0x5641ffa574a16, 0x714de12e58533],
                [0x33149f91b6483, 0x4ab4597ec4b68, 0x4a09eceb6d771, 0x46c43fd420931, 0x60895e91ab49f],
                [0x4f2ed0cf86c18, 0x240e6bbfa9d3d, 0x2e5af9ed1b418, 0x135de4ed04c02, 0x73e2e62fd96dc],
            ],
            [
                [0x53c29ce28ca6e, 0x01f96c127be21, 0x3a8b4feeb4d15, 0x45cf3a1376bd1, 0x08af9d4e4ff29],
                [0x0653616521f7e, 0x712c407b742a6, 0x17c21e598341a, 0x3d8169cc4de2a, 0x4b5303af78ebd],
                [0x0a6c3bebcbde8, 0x15b8751d12e5f, 0x6ff7de93c3f29, 0x75bb7d4ea7463, 0x0dcf2d679b624],
            ],
        ),
    ],
    // 16^2·B | 16^34·B
    [
        comb_entry(
            [
                [0x3635449aa515e, 0x3e178d0475dab, 0x50b4712a19712, 0x2dcc2860ff4ad, 0x30d76d6f03d31],
                [0x4dd0e632f9c1d, 0x2ced12622a5d9, 0x18de9614742da, 0x79ca96fdbb5d4, 0x6dd37d49a00ee],
                [0x444172106e4c7, 0x01251afed2d88, 0x534fc9bed4f5a, 0x5d85a39cf5234, 0x10c697112e864],
            ],
            [
                [0x147499718289c, 0x0a48a67e4c7ab, 0x30fbc544bafe3, 0x0c701315fe58a, 0x20b878d577b75],
                [0x141be5a45f06e, 0x5adb38becaea7, 0x3fd46db41f2bb, 0x6d488bbb5ce39, 0x17d2d1d9ef0d4],
                [0x2af18073f3e6a, 0x33aea420d24fe, 0x298008bf4ff94, 0x3539171db961e, 0x72214f63cc65c],
            ],
        ),
        comb_entry(
            [
                [0x3c4277dbe5fde, 0x5a335afd44c92, 0x0c1164099753e, 0x70487006fe423, 0x25e61cabed66f],
                [0x62aa08358c805, 0x46f440848e194, 0x447b771a8f52b, 0x377ba3269d31d, 0x03bf9baf55080],
                [0x3e128cc586604, 0x5968b2e8fc7e2, 0x049a3d5bd61cf, 0x116505b1ef6e6, 0x566d78634586e],
            ],
            [
                [0x37f405307a693, 0x2e5e66cf2b69c, 0x5d84266ae9c53, 0x5e4eb7de853b9, 0x5fdf48c58171c],
                [0x5b7b9f43b29c9, 0x149ea31eea3b3, 0x4be7713581609, 0x2d87960395e98, 0x1f24ac855a154],
                [0x608328e9505aa, 0x22182841dc49a, 0x3ec96891d2307, 0x2f363fff22e03, 0x00ba739e2ae39],
            ],
        ),
        comb_entry(
            [
                [0x7a49f9cc10834, 0x2b513788a22c6, 0x5ff4b6ef2395b, 0x2ec8e5af607bf, 0x33975bca5ecc3],
                [0x54285c65a2fd0, 0x55e62ccf87420, 0x46bb961b19044, 0x1153405712039, 0x14fba5f34793b],
                [0x746166985f7d4, 0x09939000ae79a, 0x5844c7964f97a, 0x13617e1f95b3d, 0x14829cea83fc5],
            ],
            [
                [0x698de5c8790d6, 0x268b8545beb25, 0x6d2648b96fedf, 0x47988ad1db07c, 0x03283a3e67ad7],
                [0x426f5ea88bb26, 0x33092e77f75c8, 0x1a53940d819e7, 0x1132e4f818613, 0x72297de7d518d],
                [0x41dc7be0cb939, 0x1b16c66100904, 0x0a24c20cbc66d, 0x4a2e9efe48681, 0x05e1296846271],
            ],
        ),
        comb_entry(
            [
                [0x37b8497dd95c2, 0x61549d6b4ffe8, 0x217a22db1d138, 0x0b9cf062eb09e, 0x2fd9c71e5f758],
                [0x70b2f4e71ecb8, 0x728148efc643c, 0x0753e03995b76, 0x5bf5fb2ab6767, 0x05fc3bc4535d7],
                [0x0b3ae52afdedd, 0x19da76619e497, 0x6fa0654d2558e, 0x78219d25e41d4, 0x373767475c651],
            ],
            [
                [0x2eeb32d9c495a, 0x79e25772f9750, 0x6d747833bbf23, 0x6cdd816d5d749, 0x39c00c9c13698],
                [0x7bbc8242c4550, 0x59a06103b35b7, 0x7237e4af32033, 0x726421ab3537a, 0x78cf25d38258c],
                [0x66b8e31489d68, 0x573857e10e2b5, 0x13be816aa1472, 0x41964d3ad4bf8, 0x006b52076b3ff],
            ],
        ),
        comb_entry(
            [
                [0x299fd40d1add9, 0x5f2de9a04e5f7, 0x7c0eebacc1c59, 0x4cca1b1f8290a, 0x1fbea56c3b18f],
                [0x095cb14246590, 0x002d82aa6ac68, 0x442f183bc4851, 0x6464f1c0a0644, 0x6bf5905730907],
                [0x778f1e1415b8a, 0x6f75874efc1f4, 0x28a694019027f, 0x52b37a96bdc4d, 0x02521cf67a635],
            ],
            [
                [0x0cfe19d95781c, 0x312cc621c453c, 0x145ace6da077c, 0x0912bef9ce9b8, 0x4d57e3443bc76],
                [0x37e16b9ce082d, 0x1882f57853eb9, 0x7d29eacd01fc5, 0x2e76a59b5e715, 0x7de2e9561a9f7],
                [0x0d4f4b6a55ecb, 0x7ebb0bb733bce, 0x7ba6a05200549, 0x4f6ede4e22069, 0x6b2a90af1a602],
            ],
        ),
        comb_entry(
            [
                [0x7ee0b0a9d5294, 0x381fbeb4cca27, 0x7841f3a3e639d, 0x676ea30c3445f, 0x3fa00a7e71382],
                [0x46720772f5ee4, 0x632c0f359d622, 0x2b2092ba3e252, 0x662257c112680, 0x001753d9f7cd6],
                [0x1232d963ddb34, 0x35692e70b078d, 0x247ca14777a1f, 0x6db556be8fcd0, 0x12b5fe2fa048e],
            ],
            [
                [0x3f4fc9ae61e97, 0x3bc07ebfa2d24, 0x3b744b55cd4a0, 0x72553b25721f3, 0x5fd8f4e9d12d3],
                [0x3f3245bb2d80a, 0x0e5f720f36efd, 0x3b9cccf60c06d, 0x084e323f37926, 0x465812c8276c2],
                [0x3beb22a1062d9, 0x6a7063b82c9a8, 0x0a5a35dc197ed, 0x3c80c06a53def, 0x05b32c2b1cb16],
            ],
        ),
        comb_entry(
            [
                [0x0fbc496fce34d, 0x575be6b7dae3e, 0x4a31585cee609, 0x037e9023930ff, 0x749b76f96fb12],
                [0x37c26ad6f1e92, 0x46a0971227be5, 0x4722f0d2d9b4c, 0x3dc46204ee03a, 0x6f7e93c20796c],
                [0x2f604aea6ae05, 0x637dc939323eb, 0x3fdad9b048d47, 0x0a8b0d4045af7, 0x0fcec10f01e02],
            ],
            [
                [0x05eccd24da8fd, 0x580bbfdf07918, 0x7e73586873c6a, 0x74ceddf77f93e, 0x3b5556a37b471],
                [0x4a42c7ad58195, 0x5c8667e799eff, 0x02e5e74c850a1, 0x3f0db614e869a, 0x31771a4856730],
                [0x0c524e14dd482, 0x283457496c656, 0x0ad6bcfb6cd45, 0x375d1e8b02414, 0x4fc079d27a733],
            ],
        ),
        comb_entry(
            [
                [0x558a649fe1e44, 0x44635aeefcc89, 0x1ff434887f2ba, 0x0f981220e2d44, 0x4901aa7183c51],
                [0x2d29dc4244e45, 0x6927b1bc147be, 0x0308534ac0839, 0x4853664033f41, 0x413779166feab],
                [0x1b7548c1af8f0, 0x7848c53368116, 0x01b64e7383de9, 0x109fbb0587c8f, 0x41bb887b726d1],
            ],
            [
                [0x138b089bf2f7f, 0x4a05bfd34ea39, 0x203914c925ef5, 0x7497fffe04e3c, 0x124567cecaf98],
                [0x48b440c86c50d, 0x139929cca3b86, 0x0f8f2e44cdf2f, 0x68432117ba6b2, 0x241170c2bae3c],
                [0x1ab860ac473b4, 0x5c0227c86a7ff, 0x71b12bfc24477, 0x006a573a83075, 0x3f8612966c870],
            ],
        ),
    ],
    // 16^3·B | 16^35·B
    [
        comb_entry(
            [
                [0x7806c567c49d8, 0x1994f23cd524c, 0x730e52c19b413, 0x669534fab22f1, 0x5c95b686a0788],
                [0x180e0aa39f7d2, 0x04a58d6a392fb, 0x73556a8d740e1, 0x1b13ea1fa4983, 0x56bd36cfb78ac],
                [0x519c10d14a954, 0x69296bf520558, 0x7e1e96babd1d2, 0x04a7357c1c154, 0x0dea6db1879be],
            ],
            [
                [0x45303f7957be4, 0x41c10b828a193, 0x21401428f0c68, 0x16d58390eb8e8, 0x0aba390eab0bf],
                [0x7dffe638c7bf3, 0x407116932aa53, 0x6b409277cae79, 0x276f013d9a78d, 0x7bc92fc9b9fa7],
                [0x7ef2e801ad9f9, 0x28f35fb4753f2, 0x565ad420da5f5, 0x470748359ffde, 0x02672b37dd3fb],
            ],
        ),
        comb_entry(
            [
                [0x6bf547344e5ab, 0x111e36861354c, 0x5592cbf684962, 0x0eeaf43e959fe, 0x5b2c78885483b],
                [0x2eb74d6a8797a, 0x63f5882e642b7, 0x22c1715fbd573, 0x67d94800fad1e, 0x0ad7cc8752eac],
                [0x51362793408cf, 0x06332c7b28a42, 0x0f6519bac3c5c, 0x63c5419d97d44, 0x093a7fa775003],
            ],
            [
                [0x2ca8b260885e4, 0x5905669838916, 0x7d63dd290a1af, 0x152c9bf0d130b, 0x741d1fcbab2ca],
                [0x3a729398ca7f5, 0x4af49093b7dd3, 0x3151387ae7298, 0x16414f594e73f, 0x232ca21ef736e],
                [0x1423d253fcb17, 0x55f473d6297ec, 0x1471ebc2200f3, 0x0a5f8c3016fcc, 0x0400f3a049e34],
            ],
        ),
        comb_entry(
            [
                [0x07de63a16d7be, 0x3935e6659fca2, 0x02d9dfe8ddfff, 0x201b86adf8c22, 0x6a252b19a4a31],
                [0x1604460a91286, 0x08eef1a7bd71d, 0x62978b5fcff60, 0x29f33e80f18df, 0x7b038a06c27b6],
                [0x119d5d36990f3, 0x77b69d73e53db, 0x2e644d5484eba, 0x72b63847502a6, 0x58ded57f72260],
            ],
            [
                [0x60476ba61c55b, 0x2f89a72e2d579, 0x360b424da8f5b, 0x37db7592ceaf4, 0x0c9176e984d75],
                [0x3a412a06e7b06, 0x0a591a4ac05df, 0x1ea471c519e15, 0x6f9efcb89f5eb, 0x32830ac7157ea],
                [0x02a7ab73769e8, 0x70eb631c581cf, 0x733ab84128175, 0x41014a9291375, 0x0d794f8383eba],
            ],
        ),
        comb_entry(
            [
                [0x79dade9413d77, 0x2b2e53ccfaf1c, 0x5ea9f9bc95fe7, 0x1ce2cedc88771, 0x6aa11b5bbb9e0],
                [0x553265b0fd48b, 0x63277f5311b4d, 0x755f8a2258208, 0x0a1ebc5649930, 0x79f2942d3a5c8],
                [0x22f25b6c88de9, 0x5559e402d32fb, 0x53ad390946e9f, 0x6d284da27c3f7, 0x7d90ab1bbc6a7],
            ],
            [
                [0x5f5cb9e1516f4, 0x1ec9155c8bfe6, 0x4ea7bcfba016f, 0x361786b9e15dc, 0x097b0bf22092a],
                [0x44ce7a7a2e1ac, 0x7df5a3716ef7c, 0x57df26d047f64, 0x58b0b9a50eb86, 0x0d6592233127d],
                [0x3ab1521a9d733, 0x55ac35764b891, 0x32d0c169b0bab, 0x533b12e360e63, 0x7fc90fea93eb3],
            ],
        ),
        comb_entry(
            [
                [0x4a683a7016bfe, 0x1be58a16db359, 0x390d6aa41417d, 0x7cb35b086afe6, 0x19a10d446198f],
                [0x7a3f496b3c397, 0x311e9c4a64340, 0x5d46fc0473aa8, 0x4503eca4c6ad3, 0x19ed161f508dd],
                [0x22cd687dce6ca, 0x090cc99e9aac1, 0x200e8e1fcd5a3, 0x1fe43a0f4a911, 0x483bdab159565],
            ],
            [
                [0x0f1fe1f5c5926, 0x3c764b17e8081, 0x71c59a46a3cbd, 0x3bf2054a8d17e, 0x6598ee93c98b5],
                [0x7deb59c7cb23d, 0x52a650809d8a4, 0x33cb1ea554e45, 0x508eb21c940be, 0x6ce97dabf7d8f],
                [0x5a8e50ef7c48f, 0x22de59ca644b6, 0x4f794dfad80d0, 0x581e2f3a8b9f2, 0x73119fa08c12b],
            ],
        ),
        comb_entry(
            [
                [0x00f148734fa49, 0x606c0a69c1f4f, 0x78c1ef441bc2d, 0x07f11083bb7f1, 0x3286c109dde6a],
                [0x74d0ab4da80f6, 0x0bf060ffc1ad9, 0x1be76920920f9, 0x3bd02802934d7, 0x1c7052909cf78],
                [0x67de2874e98d4, 0x5372fc18c065d, 0x1828e28530d8b, 0x4202bc0ee6f35, 0x217dd5eaaa7aa],
            ],
            [
                [0x0129453f1a4cb, 0x1391ea6f0fda6, 0x2fb9ee6f39887, 0x1467d6595899c, 0x3025798a9ea84],
                [0x5b94d21f4774d, 0x58f12f6e4ef08, 0x15948aefd8bc5, 0x109338c2be01e, 0x3cd6a85295621],
                [0x4de923aeca999, 0x00c5d1825e7fd, 0x2622b7af6a96c, 0x01b33dccefe4b, 0x3f52c02852661],
            ],
        ),
        comb_entry(
            [
                [0x7c4d0248e1eb0, 0x429ae97ea53b6, 0x1588d5381da5f, 0x4b28f354d8b9e, 0x7fa7c21f795a4],
                [0x71fb9be8c0ec8, 0x71c614050517b, 0x5b13db002eb9f, 0x30524b1cc8ed6, 0x07058a6e5df6f],
                [0x302c4db31f67f, 0x122179f657d3d, 0x17376d3b497f6, 0x5e72364098fae, 0x33b21c13a0cb9],
            ],
            [
                [0x2a48e2a1351c6, 0x29f4fea7afffd, 0x60b77c4a1891d, 0x62c85add4f2ba, 0x60c0104ba696a],
                [0x0bf99eec416c6, 0x2f53a5ece324b, 0x37a92aeb22940, 0x2b4b14aa4d58b, 0x05d0e85c99091],
                [0x5e020de9cbe97, 0x2d6a179ee80a3, 0x4477d97e81ff1, 0x7269bc6764f87, 0x36853c69ab96d],
            ],
        ),
        comb_entry(
            [
                [0x692f8087d8e31, 0x6fa4e2c7ee6c0, 0x7a9658fd37318, 0x06c92d2731032, 0x659bf72e5ac16],
                [0x7b9b05ee38c5b, 0x1c0e34278f355, 0x4cca42afe74b5, 0x38bc7773736f4, 0x1c3bab17ae109],
                [0x2b216c7cab7b0, 0x680f778798393, 0x1296355f5974d, 0x4c8293a23a828, 0x09f2606b131a2],
            ],
            [
                [0x1b8de78f39b2d, 0x63508f73d86db, 0x6f4ff79fd0bb5, 0x735920e68eb3c, 0x6a704fec92fbc],
                [0x3c0b0fac5e7be, 0x0a9811b97c886, 0x25e3e6dc92eba, 0x7e478f9266223, 0x4a0aff6d62825],
                [0x7fb9e61095301, 0x28054125f1d22, 0x198642f040b7e, 0x71bdf84f17afd, 0x681109bee0dcf],
            ],
        ),
    ],
    // 16^4·B | 16^36·B
    [
        comb_entry(
            [
                [0x07d44744346be, 0x282b6a564a81d, 0x4ed80f875236b, 0x6fbbe1d450c50, 0x4eb728c12fcdb],
                [0x34c597c6691ae, 0x7a150b6990fc4, 0x52beb9d922274, 0x70eed7164861a, 0x0a871e070c6a9],
                [0x1b5994bbc8989, 0x74b7ba84c0660, 0x75678f1cdaeb8, 0x23206b0d6f10c, 0x3ee7300f2685d],
            ],
            [
                [0x20cc9782a0dde, 0x65d4e3070aab3, 0x7bc8e31547736, 0x09ebfb1432d98, 0x504aa77679736],
                [0x0fcfa36048d13, 0x66e7133bbb383, 0x64b42a8a45676, 0x4ea6e4f9a85cf, 0x26f57eee878a1],
                [0x32cd55687efb1, 0x4448f5e2f6195, 0x568919d460345, 0x034c2e0ad1a27, 0x4041943d9dba3],
            ],
        ),
        comb_entry(
            [
                [0x255e49e7dd6b7, 0x38c2163d59eba, 0x3861f2a005845, 0x2e11e4ccbaec9, 0x1381576297912],
                [0x27947841e7518, 0x32c7388dae87f, 0x414add3971be9, 0x01850832f0ef1, 0x7d47c6a2cfb89],
                [0x2d0148ef0d6e0, 0x3522a8de787fb, 0x2ee055e74f9d2, 0x64038f6310813, 0x148cf58d34c9e],
            ],
            [
                [0x0eeba43ebcc96, 0x384dd5395f878, 0x1df331a35d272, 0x207ecfd4af70e, 0x1420a1d976843],
                [0x17743a26caadd, 0x48c9156f9c964, 0x7ef278d1e9ad0, 0x00ce58ea7bd01, 0x12d931429800d],
                [0x67799d337594f, 0x01647548f6018, 0x57fce5578f145, 0x009220c142a71, 0x1b4f92314359a],
            ],
        ),
        comb_entry(
            [
                [0x492f67934f027, 0x7ded0815528d4, 0x58461511a6612, 0x5ea2e50de1544, 0x3ff2fa1ebd5db],
                [0x72f7d9ae4756d, 0x7711e690ffc4a, 0x582a2355b0d16, 0x0dccfe885b6b4, 0x278febad4eaea],
                [0x2681f8c933966, 0x3840521931635, 0x674f14a308652, 0x3bd9c88a94890, 0x4104dd02fe9c6],
            ],
            [
                [0x4109d89150951, 0x225bd2d2d47cb, 0x57cc080e73bea, 0x6d71075721fcb, 0x239b572a7f132],
                [0x73030a49866b1, 0x2442be90b2679, 0x77bd3d8947dcf, 0x1fb55c1552028, 0x5ff191d56f9a2],
                [0x6d433ac2d9068, 0x72bf930a47033, 0x64facf4a20ead, 0x365f7a2b9402a, 0x020c526a758f3],
            ],
        ),
        comb_entry(
            [
                [0x2bf5e1124422a, 0x673146756ae56, 0x14ad99a87e830, 0x1eaca65b080fd, 0x2c863b00afaf5],
                [0x14e06db096ab8, 0x1219c89e6b024, 0x278abd486a2db, 0x240b292609520, 0x0165b5a48efca],
                [0x0a474a0846a76, 0x099a5ef981e32, 0x2a8ae3c4bbfe6, 0x45c34af14832c, 0x591b67d9bffec],
            ],
            [
                [0x034f89ed8dbbc, 0x73b8f948d8ef3, 0x786c1d323caab, 0x43bd4a9266e51, 0x02aacc4615313],
                [0x1ef59f042cc89, 0x3b1c24976dd26, 0x31d665cb16272, 0x28656e470c557, 0x452cfe0a5602c],
                [0x0f7a0647877df, 0x4e1cc0f93f0d4, 0x7ec4726ef1190, 0x3bdd58bf512f8, 0x4cfb7d7b304b8],
            ],
        ),
        comb_entry(
            [
                [0x70d1c80b49bfa, 0x3d57e7d914625, 0x3c0722165e545, 0x5e5b93819e04f, 0x3de02ec7ca8f7],
                [0x1b3719f18b55d, 0x754318c83d337, 0x27c17b7919797, 0x145b084089b61, 0x489b4f8670301],
                [0x2102d3aeb92ef, 0x68c22d50c3a46, 0x42ea89385894e, 0x75f9ebf55f38c, 0x49f5fbba496cb],
            ],
            [
                [0x43d6cb89b75fe, 0x3338d5b900e56, 0x38d327d531a53, 0x1b25c61d51b9f, 0x14b4622b39075],
                [0x699c29789ef12, 0x63beae321bc50, 0x325c340adbb35, 0x562e1a1e42bf6, 0x5b1d4cbc434d3],
                [0x32615cc0a9f26, 0x57711b99cb6df, 0x5a69c14e93c38, 0x6e88980a4c599, 0x2f98f71258592],
            ],
        ),
        comb_entry(
            [
                [0x49a108a5bcfd4, 0x6178c8e7d6612, 0x1f03473710375, 0x73a49614a6098, 0x5604a86dcbfa6],
                [0x5628c1e9c572e, 0x598b108e822ab, 0x55d8fae29361a, 0x0adc8d1a97b28, 0x06a1a6c288675],
                [0x0d1d47c1764b6, 0x01c08316a2e51, 0x2b3db45c95045, 0x1634f818d300c, 0x20989e89fe274],
            ],
            [
                [0x4a74cb50f9e56, 0x531d1c2640192, 0x0c03d9d6c7fd2, 0x57ccd156610c1, 0x3a6ae249d806a],
                [0x2ae444f54a701, 0x615397afbc5c2, 0x60d7783f3f8fb, 0x2aa675fc486ba, 0x1d8062e9e7614],
                [0x2da85a9907c5a, 0x6b23721ec4caf, 0x4d2d3a4683aa2, 0x7f9c6870efdef, 0x298b8ce8aef25],
            ],
        ),
        comb_entry(
            [
                [0x777fd3a2dcc7f, 0x594a9fb124932, 0x01f8e80ca15f0, 0x714d13cec3269, 0x0403ed1d0ca67],
                [0x4278b85eaec2e, 0x0ef59657be2ce, 0x72fd169588770, 0x2e9b205260b30, 0x730b9950f7059],
                [0x32d35874ec552, 0x1f3048df1b929, 0x300d73b179b23, 0x6e67be5a37d0b, 0x5bd7454308303],
            ],
            [
                [0x27953eff70cb2, 0x54f22ae0ec552, 0x29f3da92e2724, 0x242ca0c22bd18, 0x34b8a8404d5ce],
                [0x272ea0a2165de, 0x68179ef3ed06f, 0x4e2b9c0feac1e, 0x3ee290b1b63bb, 0x6ba6271803a7d],
                [0x6ecb583693335, 0x3ec76bfdfb84d, 0x2c895cf56a04f, 0x6355149d54d52, 0x71d62bdd465e1],
            ],
        ),
        comb_entry(
            [
                [0x2d19528b24cc2, 0x4ac66b8302ff3, 0x701c8d9fdad51, 0x6c1b35c5b3727, 0x133a78007380a],
                [0x4932115e7792a, 0x457b9bbb930b8, 0x68f5d8b193226, 0x4164e8f1ed456, 0x5bb7db123067f],
                [0x1f467c6ca62be, 0x2c4232a5dc12c, 0x7551dc013b087, 0x0690c11b03bcd, 0x740dca6d58f0e],
            ],
            [
                [0x3cc28d378df80, 0x72141f4968ca6, 0x407696bdb6d0d, 0x5d271b22ffcfb, 0x74d5f317f3172],
                [0x5b5dab1f75ef5, 0x1e2d60cbeb9a5, 0x527c2175dfe57, 0x59e8a2b8ff51f, 0x1c333621262b2],
                [0x7e55467d9ca81, 0x6a5653186f50d, 0x6b188ece62df1, 0x4c66d36844971, 0x4aebcc4547e9d],
            ],
        ),
    ],
    // 16^5·B | 16^37·B
    [
        comb_entry(
            [
                [0x70bf5d3f0af0b, 0x15c65ce3eea16, 0x56ef4d13fabd2, 0x0f6b0742769d2, 0x00ed489b3f50d],
                [0x6c72aed261ae5, 0x3311c201ee720, 0x4d8065e6ada3f, 0x6a3faf482cd79, 0x0e53dc78bf2b6],
                [0x029bf7971877a, 0x46da2fcc63721, 0x09da24d791111, 0x57aa682e2970c, 0x27632d9a5a4a4],
            ],
            [
                [0x75a7205d21a77, 0x45a77269a8a62, 0x577ab72c30110, 0x7c656ecf925ee, 0x074f46e69f10f],
                [0x1b204a059a445, 0x54962f5a1e1bd, 0x5e7155f8572d2, 0x40df0ddf6290f, 0x2633f1b9d0710],
                [0x34177018b9910, 0x38d81fc28183f, 0x5531bfe9ba883, 0x03d6b30f9f3a1, 0x5ecb72e6f1a34],
            ],
        ),
        comb_entry(
            [
                [0x7f05154b260ce, 0x1ce5f2a4e1a23, 0x1f304e361b70e, 0x666b00fe68693, 0x2b67916429e90],
                [0x285d187eaffdb, 0x77b1a150c9530, 0x0998fde96d3ee, 0x1415b2c793f81, 0x3bbc2b22d99ce],
                [0x7c952583c0a58, 0x701fc98de7722, 0x37cf03194ffe6, 0x3074d86d3ebde, 0x43a0eeb6ab54d],
            ],
            [
                [0x5a31b2259fb4e, 0x2e57958a5f4a2, 0x4d1532c2583ce, 0x00cf6da97f646, 0x382e2720c476c],
                [0x2e106e8e86997, 0x7f31a12707fdd, 0x01bafbe618ccd, 0x1684a38240755, 0x038b6898d4c5c],
                [0x1c51d8ace50a6, 0x735c5a5291e72, 0x4932a00c50b42, 0x7546da6ad0d3f, 0x21aeba8b59250],
            ],
        ),
        comb_entry(
            [
                [0x166a46d4a5487, 0x155857677472d, 0x0a2c9afe04686, 0x5c93372342dab, 0x70a477029d929],
                [0x6322357875fe8, 0x59ebf7971e758, 0x0aed8836753d3, 0x7ee46f742499c, 0x50c5eaa14c799],
                [0x6dc8bd6f2fb3c, 0x4f398f6f41ba1, 0x2367c695318ea, 0x3fdd705819596, 0x6f9ce10760296],
            ],
            [
                [0x13b34cf405530, 0x14861115ee49e, 0x01a9208f113a9, 0x436aeeae28b80, 0x118eb8f8890b0],
                [0x53600f0087f23, 0x73b4faaf08a70, 0x07da181311861, 0x476b57981ef5a, 0x0a3c16c5c27c1],
                [0x49c17cc947f3d, 0x4d5583a4f62fc, 0x3c2395b331bb6, 0x1b5efb0496758, 0x4909b3e22c67c],
            ],
        ),
        comb_entry(
            [
                [0x054b1cde1c22a, 0x0491d665bf5a2, 0x33703ab12a3a4, 0x31f2f9f3d99d6, 0x72364713fc799],
                [0x693063520e0b5, 0x7911d407fc272, 0x72566f10dff3d, 0x76cfbea6205e9, 0x699154d1f893d],
                [0x55c75b4b27526, 0x5a046db54a62b, 0x17fba3b332e10, 0x5f6917864519a, 0x73975a617d39d],
            ],
            [
                [0x485ea63fe2e89, 0x221d2825d9393, 0x3eff9eef86ebe, 0x5b647bdd54543, 0x0fb17f9fef968],
                [0x16676706ff64e, 0x3a1b0d4a7ab34, 0x1702e5842e54f, 0x6342c2470f367, 0x2d8b78e712780],
                [0x5c62eafc3902b, 0x2513d00e50f3a, 0x40482e5dce885, 0x536e1c5732070, 0x09ae23717b2b1],
            ],
        ),
        comb_entry(
            [
                [0x24df96375da10, 0x34306190e1c80, 0x6336471e34c94, 0x1c548158ca432, 0x7e18b10b29b74],
                [0x7f392f4433e46, 0x423eacd630de6, 0x74759883866e6, 0x4a69107dbc50f, 0x362a4258a381c],
                [0x1d9132b6beb2f, 0x5a5083048f20e, 0x7b249743c9ba6, 0x16f755c8f64de, 0x4be65bc8f48af],
            ],
            [
                [0x2192a4e4d083c, 0x460053c32576d, 0x3eaebacd2b381, 0x5564c122d2cd5, 0x6d9c8a9ada97f],
                [0x38fa1ad32b1d0, 0x37c4ef1648215, 0x4f7a43fa6b3b4, 0x4cb5442b5e01b, 0x66f35ddddda53],
                [0x59afb24997323, 0x7dede03a5da4f, 0x4bb31fc6edf81, 0x6e415d3a396fa, 0x03019b4f646f9],
            ],
        ),
        comb_entry(
            [
                [0x07feba36e7028, 0x003bb19c68f09, 0x4c312257cfc4c, 0x515c9a7d896a5, 0x056c244d397f0],
                [0x0fba257c26234, 0x75bd60cf163aa, 0x14e2bd5ef5208, 0x39f61586e3753, 0x5665eec6351da],
                [0x6e00943bfb210, 0x0e41001585b67, 0x6f6199d25c806, 0x49c1355aeb0b9, 0x20b209c2ab204],
            ],
            [
                [0x186b5565345cd, 0x21798822d4094, 0x3eca917bb9d98, 0x289344e39da3c, 0x387dcbff65697],
                [0x1b214e6b3dc6b, 0x6b5afa5ecb5e1, 0x0288ec0fdd5ce, 0x2fbe80cecc408, 0x392b63a58b5c3],
                [0x3addc9c07c205, 0x2bea6586fc812, 0x60d00ab1596f8, 0x19731edf67e8a, 0x61722b4aef2e0],
            ],
        ),
        comb_entry(
            [
                [0x6342ac07fb34b, 0x10426e7b26a93, 0x347d59c0b6088, 0x3c25e1316b856, 0x7a92c9fdfbcac],
                [0x4a94516bd3289, 0x54828408503f9, 0x2957589123596, 0x66c2ce1dbd90b, 0x49992cc64e612],
                [0x51bea70f801de, 0x01fc93c514cb7, 0x6cab9286fbedf, 0x504d4318366d8, 0x3b7ac0cd265c2],
            ],
            [
                [0x2aafeecbd47af, 0x7639a8c612002, 0x59f1cb156899b, 0x214f901f5b404, 0x39633944ca3c1],
                [0x07a5581cb0e3c, 0x0db28892d3ad6, 0x373687ca43fc0, 0x72c843405b50b, 0x5568d2b75a06d],
                [0x4b88c1b37cfe1, 0x460a7031e71a1, 0x61f656416da96, 0x7b27974de025b, 0x6beba1249add7],
            ],
        ),
        comb_entry(
            [
                [0x3ee438c01bcec, 0x4b81f78e77045, 0x654ffa54c32d4, 0x7ada428c81a60, 0x265cc261e09a0],
                [0x54e4f22ed39a7, 0x3cac102a15e1a, 0x76ba1d68aaba4, 0x4c97a10d974f6, 0x31bc531d6b7de],
                [0x5134da980f971, 0x224434454fbe7, 0x6ab5b61e93ee3, 0x12f1efbea101a, 0x2a14edcc6a1a1],
            ],
            [
                [0x6005ca5b1b143, 0x70ffa39b443a0, 0x7f3ff9db531ae, 0x752b77acb3b29, 0x097c29e8c1ce1],
                [0x4ecb943f5a53b, 0x3a0d811be4b87, 0x625511e732698, 0x7eae7dd31cd42, 0x5a845ae80df09],
                [0x17dbe5deb94ca, 0x7118e1389099d, 0x5a7425ce34290, 0x3e1e21f676a50, 0x0a1249fff7e58],
            ],
        ),
    ],
    // 16^6·B | 16^38·B
    [
        comb_entry(
            [
                [0x0ee0752cfce4e, 0x660dd8116fbe9, 0x55167130fffeb, 0x1c682b885955c, 0x161d25fa963ea],
                [0x28c570478433c, 0x1d8502873a463, 0x7641e7eded49c, 0x1ecedd54cf571, 0x2c03f5256c2b0],
                [0x718757b53a47d, 0x619e18b0f2f21, 0x5fbdfe4c1ec04, 0x5d798c81ebb92, 0x699468bdbd96b],
            ],
            [
                [0x0071b276d01c9, 0x0b0d8918e025e, 0x75beea79ee2eb, 0x3c92984094db8, 0x5d88fbf95a3db],
                [0x08d9e7354b610, 0x26b750b6dc168, 0x162881e01acc9, 0x7966df31d01a5, 0x173bd9ddc9a1d],
                [0x00f1efe5872df, 0x5da872318256a, 0x59ceb81635960, 0x18cf37693c764, 0x06e1cd13b19ea],
            ],
        ),
        comb_entry(
            [
                [0x72f46f4dafecf, 0x2948ffadef7a3, 0x11ecdfdf3bc04, 0x3c2e98ffeed25, 0x525219a473905],
                [0x53de66aa91948, 0x045f81a599b1b, 0x3f7a8bd214193, 0x71d4da412331a, 0x293e1c4e6c4a2],
                [0x6134b925112e1, 0x6bb942bb406ed, 0x070c445c0dde2, 0x411d822c4d7a3, 0x5b605c447f032],
            ],
            [
                [0x0ad516f166f23, 0x263f56d57c81a, 0x13422384638ca, 0x1331ff1af0a50, 0x3080603526e16],
                [0x3af629e5b0353, 0x204f1a088e8e5, 0x10efc9ceea82e, 0x589863c2fa34b, 0x7f3a6a1a8d837],
                [0x644395d3d800b, 0x2b9203dbedefc, 0x4b18ce656a355, 0x03f3466bc182c, 0x30d0fded2e513],
            ],
        ),
        comb_entry(
            [
                [0x5805920c47c89, 0x1924771f9972c, 0x38bbddf9fc040, 0x1f7000092b281, 0x24a76dcea8aeb],
                [0x1fec6f0e7f04c, 0x3cebc692c477d, 0x077986a19a95e, 0x6eaaaa1778b0f, 0x2f12fef4cc5ab],
                [0x522b2dfc0c740, 0x7e8193480e148, 0x33fd9a04341b9, 0x3c863678a20bc, 0x5e607b2518a43],
            ],
            [
                [0x14d1af21233b3, 0x1de1989b39c0b, 0x52669dc6f6f9e, 0x43434b28c3fc7, 0x0a9214202c099],
                [0x4971e68b84750, 0x52ccc9779f396, 0x3e904ae8255c8, 0x4ecae46f39339, 0x4615084351c58],
                [0x019c0aeb9a02e, 0x1a2c06995d792, 0x664cbb1571c44, 0x6ff0736fa80b2, 0x3bca0d2895ca5],
            ],
        ),
        comb_entry(
            [
                [0x31d8f6cdf1818, 0x1f86c4b144b16, 0x39875b8d73e9d, 0x2fbf0d9ffa7b3, 0x5067acab6ccdd],
                [0x4431ca596cf14, 0x015da7c801405, 0x03c9b6f8f10b5, 0x0346922934017, 0x201f33139e457],
                [0x27f6b08039d51, 0x4802f8000dfaa, 0x09692a062c525, 0x1baea91075817, 0x397cba8862460],
            ],
            [
                [0x031bc3c5d62a4, 0x7d9fe0f4c081e, 0x43ed51467f22c, 0x1e6cc0c1ed109, 0x5631deddae8f1],
                [0x08eb69ecc01bf, 0x5b4c8912df38d, 0x5ea7f8bc2f20e, 0x120e516caafaf, 0x4ea8b4038df28],
                [0x5460af1cad202, 0x0b4919dd0655d, 0x7c4697d18c14c, 0x231c890bba2a4, 0x24ce0930542ca],
            ],
        ),
        comb_entry(
            [
                [0x13093f05959b2, 0x1bd352f2ec618, 0x075789b88ea86, 0x61d1117ea48b9, 0x2339d320766e6],
                [0x5c3fbc81379e7, 0x41bbc255e2f02, 0x6a3f756998650, 0x1297fd4e07c42, 0x771b4022c1e1c],
                [0x5d986513a2fa7, 0x63f3a99e11b0f, 0x28a0ecfd6b26d, 0x53b6835e18d8f, 0x331a189219971],
            ],
            [
                [0x090f5fd06c106, 0x6abb1021e43fd, 0x232bcfad711a0, 0x3a5c13c047f37, 0x41d4e3c28a06d],
                [0x7a155fdf30b85, 0x1c6c6e5d487f9, 0x24be1134bdc5a, 0x1405970326f32, 0x549928a7324f4],
                [0x632a763ee1a2e, 0x6fa4bffbd5e4d, 0x5fd35a6ba4792, 0x7b55e1de99de8, 0x491b66dec0dcf],
            ],
        ),
        comb_entry(
            [
                [0x66f45fb4f80c6, 0x3cc38eeb9fea2, 0x107647270db1f, 0x710f1ea740dc8, 0x31167c6b83bdf],
                [0x12f3a9d7572af, 0x10d00e953c4ca, 0x603df116f2f8a, 0x33dc276e0e088, 0x1ac9619ff649a],
                [0x33842524b1068, 0x77dd39d30fe45, 0x189432141a0d0, 0x088fe4eb8c225, 0x612436341f08b],
            ],
            [
                [0x5b13dc7ea32a7, 0x18fc2db73131e, 0x7e3651f8f57e3, 0x25656055fa965, 0x08f338d0c85ee],
                [0x04a8ed0da64a1, 0x5ecfc45096ebe, 0x5edee93b488b2, 0x5b3c11a51bc8f, 0x4cf6b8b0b7018],
                [0x3a821991a73bd, 0x03be6418f5870, 0x1ddc18eac9ef0, 0x54ce09e998dc2, 0x530d4a82eb078],
            ],
        ),
        comb_entry(
            [
                [0x541db874e898d, 0x62d80fb841b33, 0x03e6ef027fa97, 0x7a03c9e9633e8, 0x46ebe2309e5ef],
                [0x349e31a2d2638, 0x0137a7fa6b16c, 0x681ae92777edc, 0x222bfc5f8dc51, 0x1522aa3178d90],
                [0x02f5369614938, 0x356e5ada20587, 0x11bc89f6bf902, 0x036746419c8db, 0x45fe70f505243],
            ],
            [
                [0x43630e1f94825, 0x4d1956a6b4009, 0x213fe2df8b5e0, 0x05ce3a41191e6, 0x65ea753f10177],
                [0x173456c9abf9e, 0x7892015100dad, 0x33ee14095fecb, 0x6ad95d67a0964, 0x0db3e7e00cbfb],
                [0x6fc3ee2096363, 0x7ec36b96d67ac, 0x510ec6a0758b1, 0x0ed87df022109, 0x02a4ec1921e1a],
            ],
        ),
        comb_entry(
            [
                [0x075a6960c0b8c, 0x6dde1c5e41b49, 0x42e3f516da341, 0x16a03fda8e79e, 0x428d1623a0e39],
                [0x24920c8951491, 0x107ec61944c5e, 0x72752e017c01f, 0x122b7dda2e97a, 0x16619f6db57a2],
                [0x74a4401a308fd, 0x06ed4b9558109, 0x746f1f6a08867, 0x4636f5c6f2321, 0x1d81592d60bd3],
            ],
            [
                [0x6259a3b24b8a2, 0x188b5f4170b9c, 0x681c0dee15deb, 0x4dfe665f37445, 0x3d143c5112780],
                [0x06162f1cf795f, 0x324ddcafe5eb9, 0x018d5e0463218, 0x7e78b9092428e, 0x36d12b5dec067],
                [0x5279179154557, 0x39f8f0741424d, 0x45e6eb357923d, 0x42c9b5edb746f, 0x2ef517885ba82],
            ],
        ),
    ],
    // 16^7·B | 16^39·B
    [
        comb_entry(
            [
                [0x3d7beec2a4c38, 0x06159841dbb06, 0x37dd604b2458a, 0x540f49d23d549, 0x702d67a3333c4],
                [0x2369a2f89c8a1, 0x3af91bd01a749, 0x3b680558c4de8, 0x01fde5600453c, 0x2cb8b3a5b483b],
                [0x417cbcb1b90a1, 0x54fe22f29c6dc, 0x16f181ccecf76, 0x1069fa8840444, 0x24141dc0e6a80],
            ],
            [
                [0x5438cd11e0d4a, 0x1a8799e611117, 0x64def30c32d84, 0x106704d071bc8, 0x4559135b25b17],
                [0x436837c6da1e9, 0x5e3f737b7c3d4, 0x1774557e70626, 0x729181800fe67, 0x28a7c99ebc57b],
                [0x59399e8d19e9d, 0x172c4847ff71f, 0x71d0a8e420647, 0x262595ca46ba3, 0x37f33226d7fb4],
            ],
        ),
        comb_entry(
            [
                [0x73c773fefee9d, 0x13839f313ab3e, 0x0b9517ecfc7be, 0x23e71aefda170, 0x5766120b47a1b],
                [0x25dccbd83157d, 0x2645990129232, 0x6435b90f28481, 0x33d9472bf8c1f, 0x1a4714cede2e7],
                [0x0ba0fb8b6b7ff, 0x6ceea23f43b64, 0x7c0b626dccb0e, 0x2f8d495a8e04c, 0x4f3875ad489ca],
            ],
            [
                [0x68767b55f6e08, 0x66b64074041b5, 0x2be31e5290ece, 0x3d1f1b92d3740, 0x0f7a7fd1705fa],
                [0x12553c821b11d, 0x0483c603be672, 0x1088bf59bb50b, 0x3478337e60888, 0x307a3b41c1921],
                [0x35d076eb55ce0, 0x7f541b24b51dd, 0x2db1ba0bf14da, 0x7a95f40c187ee, 0x556c7045827ba],
            ],
        ),
        comb_entry(
            [
                [0x4762f4932ab22, 0x6e5e9878378ff, 0x2a257a1eb03b7, 0x040afb5aad54d, 0x3680274dad0a0],
                [0x513f6ee73eec0, 0x5ad2221762f3d, 0x00e1832971949, 0x4faf2449461c3, 0x722a1446fd705],
                [0x59fe9a8cf8819, 0x2108eb5339a12, 0x2c2731742a655, 0x04ab7560b9990, 0x628ecf04331b1],
            ],
            [
                [0x3517302e9d8b7, 0x52490e29d11c5, 0x2a582d78f9489, 0x6d4dea7debba6, 0x6f4b4199c5eca],
                [0x390022bf44406, 0x7dff216a69729, 0x3e1b4eaaf508d, 0x771bb0054b07d, 0x2f45abdac2322],
                [0x74912c8ef8a6a, 0x7c87f6dcbcc35, 0x7509f3f963e93, 0x0f5dad7e62eb7, 0x6a5393281e1e1],
            ],
        ),
        comb_entry(
            [
                [0x4b118a9d0ddbc, 0x6811690057317, 0x29ac413b91278, 0x0aec38449135c, 0x685f349a45c79],
                [0x1acf85c74ccf1, 0x02104ca4a3368, 0x6b6c51ed9ccc6, 0x207cce4957688, 0x7a47d70d34ecb],
                [0x0c4cbcc43a4f5, 0x146cef7d52c14, 0x7e3d7b5dd719b, 0x6e050bd50ba97, 0x11ded9020e01f],
            ],
            [
                [0x25139a5d1ee89, 0x79ff26d311e7b, 0x3862312051515, 0x51e9fb117f680, 0x0f513815db8b5],
                [0x704fe149443cf, 0x330cb9bbae1ff, 0x47b46dd4f2b1b, 0x1ce989c2d81a9, 0x5846a27cacd10],
                [0x5cdac1eb08717, 0x2b21e5d3789fe, 0x5ebea659fa2ca, 0x45922049daf11, 0x0d414bed8708b],
            ],
        ),
        comb_entry(
            [
                [0x67809caefe704, 0x5bc61d18d9121, 0x2bac7261ca0a5, 0x18fa62e6951c9, 0x194263d157715],
                [0x795b03bea93b7, 0x28662757a68e3, 0x5f8fdec154b5f, 0x5f65ec9b87170, 0x7b120f1db20e5],
                [0x2fb3d86502d7a, 0x08a14d26a42fa, 0x03b5d76d59361, 0x3553ed4b16453, 0x00d0f85b31873],
            ],
            [
                [0x68265fd0e75f6, 0x517721ce0f9f6, 0x7e4b1eb916cf8, 0x16eb921546f4f, 0x685b320193320],
                [0x06a92294ac9e8, 0x0baaaa8f7d031, 0x5c5660c8c58ad, 0x200ca67de2201, 0x50eb8fdb134bc],
                [0x73ec6d6b330cd, 0x0e265f5fe3816, 0x2977b86139120, 0x1693995b9a962, 0x5d7c7cf1aa7cd],
            ],
        ),
        comb_entry(
            [
                [0x3142e777c84fd, 0x0e0b5180c52f1, 0x7984b1fd00991, 0x519d33d6a8df3, 0x2f7b459698dd6],
                [0x53c1efd7621c1, 0x4e88ace3eb4ce, 0x6c8f045a702d2, 0x3e6cb8fa93a02, 0x387bc74851a8c],
                [0x14b4d4a52a9a8, 0x25ed71065f031, 0x06f58e2b764f8, 0x3668c26c2a45b, 0x3f1c62dbd6c9f],
            ],
            [
                [0x346bf7a4aafa2, 0x589a81a8235e7, 0x1f0578ede1c17, 0x6a688a7863565, 0x3f364faaa9489],
                [0x1013e9b73a562, 0x2e91d84dc267a, 0x51a01624973bd, 0x21c53fe730a6e, 0x78b0fad41e9aa],
                [0x6a431ed05b488, 0x593892b8fd7ea, 0x7cd946a94cf99, 0x619f43295d7c3, 0x0241800059d66],
            ],
        ),
        comb_entry(
            [
                [0x71f0091910c1f, 0x417fe5c2585d1, 0x249d0e2937d3f, 0x47d30632b0577, 0x6338283facefc],
                [0x53e40148f693d, 0x4329d734e47f5, 0x13d38bc14995b, 0x0c597a6e5fe8c, 0x406f8db1c482e],
                [0x30d2c7f191ee4, 0x03787fece13cc, 0x3edcf113efe0c, 0x7d2bc3ec7273d, 0x50d83d5be8f58],
            ],
            [
                [0x077fea37a5be4, 0x05cb4bdd6f9d6, 0x449c2e36d90bc, 0x14e61736862a3, 0x4771b65538e45],
                [0x50c7dcf38ea01, 0x016522f56c506, 0x5c20bddf1b36f, 0x0f05673e7df42, 0x4d2845aba2d9a],
                [0x37fe0447070de, 0x06dbaaafbf76a, 0x0036f2f2e9d11, 0x3fc69dad1a39b, 0x4aeabbe6f9ffd],
            ],
        ),
        comb_entry(
            [
                [0x03916c11a1897, 0x5fca0da0110ad, 0x192f404b5a693, 0x3e31cd789bc7b, 0x6594213136151],
                [0x4cf90b4d3b66d, 0x4ac2e65cc1815, 0x31ac2ea9c1677, 0x372019e8fbc38, 0x584161cd26d94],
                [0x2b1a072d27ca2, 0x33f7bd8e0977e, 0x18ae07afce4f1, 0x2c4f4c6dde771, 0x02eebd0b3029b],
            ],
            [
                [0x0119e40d8f78c, 0x0a78e21c228c6, 0x44375e6806a6f, 0x272a4369592c4, 0x1e6c47b3db032],
                [0x134bcc4a9c8f2, 0x39159c5c6ed44, 0x44682ebefe3f4, 0x5cf000571824c, 0x046e3a616bc89],
                [0x65442f03906be, 0x29c6c57c5429c, 0x708c31d280675, 0x30e34666ff646, 0x7cfb7e3faf6b8],
            ],
        ),
    ],
    // 16^8·B | 16^40·B
    [
        comb_entry(
            [
                [0x68756a60dac5f, 0x55d757b8aec26, 0x3383df45f80bd, 0x6783f8c9f96a6, 0x20234a7789ecd],
                [0x5b69f7b85c5e8, 0x17a2d175650ec, 0x4cc3e6dbfc19e, 0x73e1d3873be0e, 0x3a5f6d51b0af8],
                [0x20db67178b252, 0x73aa3da2c0eda, 0x79045c01c70d3, 0x1b37b15251059, 0x7cd682353cffe],
            ],
            [
                [0x7974e8c58aedc, 0x7757e083488c6, 0x601c62ae7bc8b, 0x45370c2ecab74, 0x2f1b78fab143a],
                [0x6bffb305b2f51, 0x5b112b2d712dd, 0x35774974fe4e2, 0x04af87a96e3a3, 0x57968290bb3a0],
                [0x2b8430a20e101, 0x1a49e1d88fee3, 0x38bbb47ce4d96, 0x1f0e7ba84d437, 0x7dc43e35dc2aa],
            ],
        ),
        comb_entry(
            [
                [0x1a45bd887fab6, 0x65748076dc17c, 0x5b98000aa11a8, 0x4a1ecc9080974, 0x2838c8863bdc0],
                [0x5cd6068acf4f3, 0x3079afc7a74cc, 0x58097650b64b4, 0x47fabac9c4e99, 0x3ef0253b2b2cd],
                [0x3b0cf4a465030, 0x022b8aef57a2d, 0x2ad0677e925ad, 0x4094167d7457a, 0x21dcb8a606a82],
            ],
            [
                [0x66665887dd9c3, 0x629760a6ab0b2, 0x481e6c7243e6c, 0x097e37046fc77, 0x7ef72016758cc],
                [0x02a5c273e9718, 0x32bc9dfb28b4f, 0x48df4f8d5db1a, 0x54c87976c028f, 0x044fb81d82d50],
                [0x718c5a907e3d9, 0x3b9c98c6b383b, 0x006ed255eccdc, 0x6976538229a59, 0x7f79823f9c30d],
            ],
        ),
        comb_entry(
            [
                [0x004468c9d9fc8, 0x5da8554796b8c, 0x3b8be70950025, 0x6d5892da6a609, 0x0bc3d08194a31],
                [0x500fabe7731ba, 0x7cc53c3113351, 0x7cf65fe080d81, 0x3c5d966011ba1, 0x5d840dbf6c6f6],
                [0x6380d309fe18b, 0x4d73c2cb8ee0d, 0x6b882adbac0b6, 0x36eabdddd4cbe, 0x3a4276232ac19],
            ],
            [
                [0x4d239a3b513e8, 0x29723f51b1066, 0x642f4cf04d9c3, 0x4da095aa09b7a, 0x0a4e0373d784d],
                [0x41ff068f587ba, 0x1c00a191bcd53, 0x7b56f9c209e25, 0x3781e5fccaabe, 0x64a9b0431c06d],
                [0x3d6a15b7d2919, 0x41aa75046a5d6, 0x691751ec2d3da, 0x23638ab6721c4, 0x071a7d0ace183],
            ],
        ),
        comb_entry(
            [
                [0x2432c8a7084fa, 0x47bf73ca8a968, 0x1639176262867, 0x5e8df4f8010ce, 0x1ff177cea16de],
                [0x0c172db447ecb, 0x3f8c505b7a77f, 0x6a857f97f3f10, 0x4fcc0567fe03a, 0x0770c9e824e1a],
                [0x1d99a45b5b5fd, 0x523674f2499ec, 0x0f8fa26182613, 0x58f7398048c98, 0x39f264fd41500],
            ],
            [
                [0x72daac887ba0b, 0x0b7f4ac5dda60, 0x3bdda2c0498a4, 0x74e67aa180160, 0x2c3bcc7146ea7],
                [0x4355220e14431, 0x0e1362a283981, 0x2757cd8359654, 0x2e9cd7ab10d90, 0x7c69bcf761775],
                [0x0d7eb04e8295f, 0x4a5ea1e6fa0fe, 0x45e635c436c60, 0x28ef4a8d4d18b, 0x6f5a9a7322aca],
            ],
        ),
        comb_entry(
            [
                [0x53417dbe7e29c, 0x54573827394f5, 0x565eea6f650dd, 0x42050748dc749, 0x1712d73468889],
                [0x34aabfe097be1, 0x43bfc03253a33, 0x29bc7fe91b7f3, 0x0a761e4844a16, 0x65c621272c35f],
                [0x389f8ce3193dd, 0x2d424b8177ce5, 0x073fa0d3440cd, 0x139020cd49e97, 0x22f9800ab19ce],
            ],
            [
                [0x1000c2f41c6c5, 0x0219fdf737174, 0x314727f127de7, 0x7e5277d23b81e, 0x494e21a2e147a],
                [0x1d4eba3d944be, 0x0100f15f3dce5, 0x61a700e367825, 0x5922292ab3d23, 0x02ab9680ee8d3],
                [0x48a85dde50d9a, 0x1c1f734493df4, 0x47bdb64866889, 0x59a7d048f8eec, 0x6b5d76cbea46b],
            ],
        ),
        comb_entry(
            [
                [0x2368a3e9ef8cb, 0x454aa08e2ac0b, 0x490923f8fa700, 0x372aa9ea4582f, 0x13f416cd64762],
                [0x29fdd9a6efdac, 0x7c694a9282840, 0x6f7cdeee44b3a, 0x55a3207b25cc3, 0x4171a4d38598c],
                [0x758aa99c94c8c, 0x5f6001700ff44, 0x7694e488c01bd, 0x0d5fde948eed6, 0x508214fa574bd],
            ],
            [
                [0x7556cec0cd994, 0x5eb9a03b7510a, 0x50ad1dd91cb71, 0x1aa5780b48a47, 0x0ae333f685277],
                [0x141171e782522, 0x6806d26da7c1f, 0x3f31d1bc79ab9, 0x09f20459f5168, 0x16fb869c03dd3],
                [0x6199733b60962, 0x69b157c266511, 0x64740f893f1ca, 0x03aa408fbf684, 0x3f81e38b8f70d],
            ],
        ),
        comb_entry(
            [
                [0x269153ed6fe4b, 0x72a23aef89840, 0x052be5299699c, 0x3a5e5ef132316, 0x22f960ec6faba],
                [0x215bb53d003d6, 0x1179e792ca8c3, 0x1a0e96ac840a2, 0x22393e2bb3ab6, 0x3a7758a4c86cb],
                [0x111f693ae5076, 0x3e3bfaa94ca90, 0x445799476b887, 0x24a0912464879, 0x5d9fd15f8de7f],
            ],
            [
                [0x10fcc7ed9affe, 0x4248cb0e96ff2, 0x4311c115172e2, 0x4c9d41cbf6925, 0x50510fc104f50],
                [0x37f355f17c824, 0x07ae85334815b, 0x7e3abddd2e48f, 0x61eeabe1f45e5, 0x0ad3e2d34cded],
                [0x40fc5336e249d, 0x3386639fb2de1, 0x7bbf871d17b78, 0x75f796b7e8004, 0x127c158bf0fa1],
            ],
        ),
        comb_entry(
            [
                [0x408d36d63727f, 0x5faf8f6a66062, 0x2bb892da8de6b, 0x769d4f0c7e2e6, 0x332f35914f8fb],
                [0x44d2aeed7521e, 0x50865d2c2a7e4, 0x2705b5238ea40, 0x46c70b25d3b97, 0x3bc187fa47eb9],
                [0x70115ea86c20c, 0x16d88da24ada8, 0x1980622662adf, 0x501ebbc195a9d, 0x450d81ce906fb],
            ],
            [
                [0x17c422e9879a2, 0x28a5946c8fec3, 0x53ab32e912b77, 0x7b44da09fe0a5, 0x354ef87d07ef4],
                [0x28fc4ae51b974, 0x26e89bfd2dbd4, 0x4e122a07665cf, 0x7cab1203405c3, 0x4ed82479d167d],
                [0x3b52260c5d975, 0x79d6836171fdc, 0x7d994f140d4bb, 0x1b6c404561854, 0x302d92d205392],
            ],
        ),
    ],
    // 16^9·B | 16^41·B
    [
        comb_entry(
            [
                [0x64d2ad8453902, 0x1dd1b65a3bf15, 0x74b0479c06016, 0x53cd559ccafe3, 0x53b16d2324ccc],
                [0x64d66b2cae0b5, 0x67d794caec464, 0x3492b21f6ebb4, 0x28801875f6b78, 0x2a887f78f7635],
                [0x3b9e75c012d4f, 0x2395c3e5d4544, 0x575c328325d19, 0x1fa97db1939b3, 0x0ba7250b86440],
            ],
            [
                [0x1023fcb3efb7c, 0x338c78552898b, 0x71f8211b0bf2e, 0x26cdd20c87161, 0x0e545daea5187],
                [0x38b8b0df53c30, 0x151cc1e1312af, 0x15e5b78a871dc, 0x5e4dde3d3381a, 0x22a48f9a90c99],
                [0x5c0dc8d3fac58, 0x59cdc857fad6f, 0x0034c15525f35, 0x09b2a17be8dfa, 0x4159f47f048d9],
            ],
        ),
        comb_entry(
            [
                [0x518fd029c6421, 0x4312531e05761, 0x4943a5af0b450, 0x0e4c1a3fc7345, 0x7b9f2fe8032d7],
                [0x3589386f86d9c, 0x6dc2750b49bac, 0x2a9f55d85a645, 0x6fd972888caa7, 0x32c21b57fb60b],
                [0x023cd319e0780, 0x0312eeeb8bb0f, 0x02acfdfbf133f, 0x1b8a42a7d894d, 0x12c49d417238c],
            ],
            [
                [0x5660839e31e32, 0x2b080b7ca0415, 0x36af1a7e0786f, 0x4bafc03202b7a, 0x14d23dd4ce71b],
                [0x515a8bbd24839, 0x0f5f6056aae90, 0x68a85fddc4a0d, 0x078a85d156324, 0x060525513ad73],
                [0x18e098aa27f82, 0x7713436049e47, 0x5374931b5e60a, 0x0e1fd34a04210, 0x71ab966fa3230],
            ],
        ),
        comb_entry(
            [
                [0x0b533ffe83769, 0x3b1c3ad7a212a, 0x40b9440861870, 0x55a78116c1c09, 0x2509200c6391c],
                [0x3a01783799542, 0x1f55abdc7e136, 0x5c0527d89b742, 0x264dd005e7775, 0x1421b246a0a44],
                [0x43a8e8c24a7c7, 0x01b1e0bdea954, 0x4fae7701307d5, 0x671d6dd2f0605, 0x2ab5504448a49],
            ],
            [
                [0x3d8e34ded02fc, 0x58b2de45545b9, 0x00ca3684547cf, 0x5915e512aa1a7, 0x35768fbe92411],
                [0x08a0702809955, 0x5416878723621, 0x01a1bb50ec9cf, 0x276e54db3d77f, 0x605eecbf8335f],
                [0x00a656c340431, 0x4f1dcb385f064, 0x4c03e2a7f35c5, 0x17cbaea309fb8, 0x7a912faf60f54],
            ],
        ),
        comb_entry(
            [
                [0x227266f0f5dec, 0x02bdaa10485da, 0x1a350566093b9, 0x11fc03df63e4a, 0x7093bae1b521e],
                [0x7ac631c5d3afa, 0x63f3bf18d9b80, 0x5cf8ac1618545, 0x0aeb9503cec4e, 0x7301f4ceb4eae],
                [0x1e759d6722c41, 0x1ee57ee536c81, 0x08795a699d387, 0x591de0512759e, 0x390167d24ebac],
            ],
            [
                [0x4585e5edc1a43, 0x5cb12f8e79640, 0x1c120f27c385b, 0x4df2dc1605727, 0x624a170e2bddf],
                [0x74f8dfa2d5597, 0x00a8ee26184a7, 0x5ac4408979271, 0x62500602972cc, 0x33cb966e33bb6],
                [0x028047f116909, 0x383cac88ceb2e, 0x085ce1e0a2b10, 0x1c23820bedef3, 0x721627aefbac4],
            ],
        ),
        comb_entry(
            [
                [0x58e3bba353f1c, 0x1b7ed486c24fe, 0x1589941311dd9, 0x22ed7dde272b7, 0x07db2ee6aae1a],
                [0x3054ba2f2120b, 0x5d620b136faf7, 0x703b6fb8ae73a, 0x5b49ff45d6479, 0x4cbd40767112c],
                [0x03cc029c58176, 0x04b962bac216c, 0x3c2b63566238e, 0x14395db0a09ee, 0x7b8eec6c74183],
            ],
            [
                [0x03bc38736add5, 0x5f8a6562612fa, 0x406ef10bc508a, 0x7d39d534502b8, 0x4c946cf7e74f9],
                [0x097bc410b2f22, 0x4f6b9f5089fa6, 0x55f29d3c68176, 0x48130944d0ef7, 0x245ea199bb821],
                [0x4a66978d477f8, 0x785222ffc35db, 0x032f5606262e8, 0x1a8e7b9fcc1b9, 0x67da12e6b8b56],
            ],
        ),
        comb_entry(
            [
                [0x240782cd27cb0, 0x47f7d2cf7bc99, 0x3507a7b6be70c, 0x726d94de9a545, 0x72810497626ed],
                [0x6e570fc386b73, 0x03b475198e65f, 0x25a0d676a2c05, 0x42acbaffe8564, 0x6ee809a1b132a],
                [0x4bb31fcfd863a, 0x147c9c918b288, 0x223e894bf8da4, 0x4976e14e433e8, 0x13bd1e38d1732],
            ],
            [
                [0x7e187b4bd6e07, 0x078fa3fce8e0c, 0x32168c1ba3c08, 0x3c549e355179c, 0x76297d1f3d75a],
                [0x6f3d38ec8308c, 0x58e3d7295656f, 0x418aaf60a3f5f, 0x0a0c03e1d9b62, 0x0cb64cb831a94],
                [0x0fc33534c6378, 0x39ca83d0c2606, 0x6cb1ca2e58d71, 0x6e58aecd4df6c, 0x49233ea3f3775],
            ],
        ),
        comb_entry(
            [
                [0x34cd8696149b5, 0x2f03b1556fa65, 0x048ae539564df, 0x4d805e59093d7, 0x41e86fcfb1409],
                [0x7b5cf1dfac521, 0x62deaa88a0447, 0x645deb0c97094, 0x25e8185cc6bb2, 0x1ed018b64f88a],
                [0x0dfa1b802a6b0, 0x0e855a77aa6c6, 0x3169352203e1d, 0x2ec857c86b677, 0x746a247a37cdc],
            ],
            [
                [0x398fa8dbffc3a, 0x5baa9b68aac52, 0x3c94a5784bf94, 0x5a8f9df08efed, 0x628b140dce5e7],
                [0x185fe1c9f249b, 0x2b42466526f67, 0x37d35893f5acb, 0x2866759a2ca0d, 0x6987ff6f542de],
                [0x241428f83753c, 0x790cd5f32e8fc, 0x46a60a58c5efa, 0x596ed5dada19e, 0x074d8d245287f],
            ],
        ),
        comb_entry(
            [
                [0x1b8bd2b7b9af6, 0x6a6ff8b6a3aa6, 0x64d51b5401424, 0x7a49197e792e2, 0x20a365142bb40],
                [0x4d85278d941ed, 0x07a45ef086dd9, 0x6ff36dc8952ba, 0x271629168173d, 0x681e3351bff0e],
                [0x4b59d83034f45, 0x643f441df716c, 0x1954390be2dc7, 0x395b4924a4add, 0x539ef98e45d54],
            ],
            [
                [0x7d9cd440bfc31, 0x435e631faf066, 0x4b081c1ca74b2, 0x4df502052523b, 0x46002ef03a734],
                [0x075c6c0e31488, 0x65c4406968903, 0x4a0ed948650a6, 0x3fcb911e4c518, 0x3420d60b34227],
                [0x23adeaffe65f7, 0x28b7c0ec99f54, 0x459100de0987b, 0x1caa20e050f17, 0x5aea8e567a87d],
            ],
        ),
    ],
    // 16^10·B | 16^42·B
    [
        comb_entry(
            [
                [0x3b6a1a6205275, 0x2e82791d06dcf, 0x23d72caa93c87, 0x5f0b7ab68aaf4, 0x2de25d4ba6345],
                [0x4d8961cae743f, 0x6bdc38c7dba0e, 0x7d3b4a7e1b463, 0x0844bdee2adf3, 0x4cbad279663ab],
                [0x19024a0d71fcd, 0x15f65115f101a, 0x4e99067149708, 0x119d8d1cba5af, 0x7d7fbcefe2007],
            ],
            [
                [0x3c1a2bca4283d, 0x23430c7bb2f02, 0x1a3ea1bb58bc2, 0x7265763de5c61, 0x10e5d3b76f1ca],
                [0x46fb6e4e0f177, 0x53497ad5265b7, 0x1ebdba01386fc, 0x0302f0cb36a3c, 0x0edc5f5eb426d],
                [0x3bfd653da8e67, 0x584953ec82a8a, 0x55e288fa7707b, 0x5395fc3931d81, 0x45b46c51361cb],
            ],
        ),
        comb_entry(
            [
                [0x71e6a266b2801, 0x09aae73e2df5d, 0x40dd8b219b1a3, 0x546fb4517de0d, 0x5975435e87b75],
                [0x45dc5f3c29094, 0x3455220b579af, 0x070c1631e068a, 0x26bc0630e9b21, 0x4f9cd196dcd8d],
                [0x297d86a7b3768, 0x4835a2f4c6332, 0x070305f434160, 0x183dd014e56ae, 0x7ccdd084387a0],
            ],
            [
                [0x02abf314f7fa1, 0x391d19e8a1528, 0x6a2fa13895fc7, 0x09d8eddeaa591, 0x2177bfa36dcb7],
                [0x54ddd8a7fe3e4, 0x2cecc41c619d3, 0x43a6562ac4d91, 0x4efa5aca7bdd9, 0x5c1c0aef32122],
                [0x01bbcfa79db8f, 0x3d84beb3666e1, 0x20c921d812204, 0x2dd843d3b32ce, 0x4ae619387d8ab],
            ],
        ),
        comb_entry(
            [
                [0x6422c6d260417, 0x212904817bb94, 0x5a319deb854f5, 0x7a9d4e060da7d, 0x428bd0ed61d0c],
                [0x484186760cc93, 0x7435665533361, 0x02f686336b801, 0x5225446f64331, 0x3593ca848190c],
                [0x3189a5e849aa7, 0x6acbb1f59b242, 0x7f6ef4753630c, 0x1f346292a2da9, 0x27398308da2d6],
            ],
            [
                [0x3f6aa5344a32e, 0x69683680f11bb, 0x04c3581f623aa, 0x701af5875cba5, 0x1a00d91b17bf3],
                [0x17e44985bfb83, 0x54e32c626cc22, 0x096412ff38118, 0x6b241d61a246a, 0x75685abe5ba43],
                [0x60933eb61f2b2, 0x5193fe92a4dd2, 0x3d995a550f43e, 0x3556fb93a883d, 0x135529b623b0e],
            ],
        ),
        comb_entry(
            [
                [0x38d28435ed413, 0x4064f19992858, 0x7680fbef543cd, 0x1aadd83d58d3c, 0x269597aebe8c3],
                [0x10e4c0a702453, 0x4daafa37bd734, 0x49f6bdc3e8961, 0x1feffdcecdae6, 0x572c2945492c3],
                [0x7c745d6cd30be, 0x27c7755df78ef, 0x1776833937fa3, 0x5405116441855, 0x7f985498c05bc],
            ],
            [
                [0x0dbd7add1d518, 0x119f823e2231e, 0x451d66e5e7de2, 0x500c39970f838, 0x79b5b81a65ca3],
                [0x716bce22e83fe, 0x33d0130b83eb8, 0x0952abad0afac, 0x309f64ed31b8a, 0x5972ea051590a],
                [0x4ac20dc8f7811, 0x29589a9f501fa, 0x4d810d26a6b4a, 0x5ede00d96b259, 0x4f7e9c95905f3],
            ],
        ),
        comb_entry(
            [
                [0x1ce889f0be117, 0x36f6a94510709, 0x7f248720016b4, 0x1821ed1e1cf91, 0x76c2ec470a31f],
                [0x615520fbf6363, 0x0b9e9bf74da6a, 0x4fe8308201169, 0x173f76127de43, 0x30f2653cd69b1],
                [0x0c938aac10c85, 0x41b64ed797141, 0x1beb1c1185e6d, 0x1ed5490600f07, 0x2f1273f159647],
            ],
            [
                [0x74bbc5781302e, 0x73135bb81ec4c, 0x7ef671b61483c, 0x7264614ccd729, 0x31993ad92e638],
                [0x0443d355299fe, 0x39b7d7d5aee39, 0x692519a2f34ec, 0x6e4404924cf78, 0x1942eec4a144a],
                [0x45319ae234992, 0x2219d47d24fb5, 0x4f04488b06cf6, 0x53aaa9e724a12, 0x2a0a65314ef9c],
            ],
        ),
        comb_entry(
            [
                [0x1fc7c8ae01e11, 0x2094d5573e8e7, 0x5ca3cbbf549d2, 0x4f920ecc54143, 0x5d9e572ad85b6],
                [0x08bd755a70bc0, 0x49e3a885ce609, 0x16585881b5ad6, 0x3c27568d34f5e, 0x38ac1997edc5f],
                [0x6b517a751b13b, 0x0cfd370b180cc, 0x5377925d1f41a, 0x34e56566008a2, 0x22dfcd9cbfe9e],
            ],
            [
                [0x7937ff7f927c2, 0x0c2fa14c6a5b6, 0x556bddb6dd07c, 0x6f6acc179d108, 0x4cf6e218647c2],
                [0x61acd3c1c793a, 0x58b46b78779e6, 0x3369aacbe7af2, 0x509b0743074d4, 0x055dc39b6dea1],
                [0x1227cc28d5bb6, 0x78ee9bff57623, 0x28cb2241f893a, 0x25b541e3c6772, 0x121a307710aa2],
            ],
        ),
        comb_entry(
            [
                [0x3d2e0c30d0cd9, 0x3f597686671bb, 0x0aa587eb63999, 0x0e3c7b592c619, 0x6b2916c05448c],
                [0x459b4103be0a1, 0x59a4b3f2d2add, 0x7d734c8bb8eeb, 0x2393cbe594a09, 0x0fe9877824cde],
                [0x334d10aba913b, 0x045cdb581cfdb, 0x5e3e0553a8f36, 0x50bb3041effb2, 0x4c303f307ff00],
            ],
            [
                [0x35d5e9f034a97, 0x126069785bc9b, 0x5474ec7854ff0, 0x296a302a348ca, 0x333fc76c7a40e],
                [0x1713ec77483c9, 0x6f70572d5facb, 0x25ef34e22ff81, 0x54d944f141188, 0x527bb94a6ced3],
                [0x5992a995b482e, 0x78dc707002ac7, 0x5936394d01741, 0x4fba4281aef17, 0x6b89069b20a7a],
            ],
        ),
        comb_entry(
            [
                [0x23bd617b28c85, 0x6e72ee77d5a61, 0x1a972ff174dde, 0x3e2636373c60f, 0x0d61b8f78b2ab],
                [0x403580dd94500, 0x48df77d92653f, 0x38a9fe3b349ea, 0x0ea89850aafe1, 0x416b151ab706a],
                [0x0d7efe9c136b0, 0x1ab1c89640ad5, 0x55f82aef41f97, 0x46957f317ed0d, 0x191a2af74277e],
            ],
            [
                [0x2a0416270220d, 0x75f248b69d025, 0x1cbbc16656a27, 0x5b9ffd6e26728, 0x23bc2103aa73e],
                [0x2fa8cb5c7db77, 0x718e6982aa810, 0x39e95f81a1a1b, 0x5e794f3646cfb, 0x0473d308a7639],
                [0x6792603589e05, 0x248db9892595d, 0x006a53cad2d08, 0x20d0150f7ba73, 0x102f73bfde043],
            ],
        ),
    ],
    // 16^11·B | 16^43·B
    [
        comb_entry(
            [
                [0x0095bab6f4985, 0x369f7f5e35aaa, 0x031d50013d335, 0x1434ec7176895, 0x2bc24e04b2212],
                [0x4b60b2fe09a14, 0x5fb762e8fc13a, 0x2d7f5bb0e13c2, 0x5852c717544bc, 0x519ef577b5e09],
                [0x3d7d91124cca9, 0x0b7114e11c30c, 0x5c0c7d5eb0205, 0x57295e6b984c2, 0x62337a6e8ab8f],
            ],
            [
                [0x2d50c7ec20d3e, 0x5d4192e4c76b4, 0x7fdcd37192f75, 0x55d2b74482960, 0x4929c6f72b2ff],
                [0x6cba293a36247, 0x4564d1faca6b1, 0x2807226be3e61, 0x2922097bf4cb4, 0x5786f312cd754],
                [0x788ffca14032c, 0x5088fe3dc666e, 0x46f32b7ce4840, 0x3c1c58a038f91, 0x4c817b4bf2344],
            ],
        ),
        comb_entry(
            [
                [0x6f17f06ffca16, 0x36d255c2d4979, 0x53d0ac3781b87, 0x16803a9b816b0, 0x5f6041b45b921],
                [0x3324e1b3a1273, 0x63020aa681a35, 0x63065b86251f3, 0x7341daecab3d4, 0x7fa00425802e1],
                [0x31574028c2705, 0x53b61aebfcfaa, 0x632377600c5f5, 0x4cc187fd67477, 0x7e9de97bb6c3e],
            ],
            [
                [0x053852871b96e, 0x56c187e3761ff, 0x4d1100b84fa7e, 0x225f77eaca992, 0x0a37c37075b77],
                [0x3a057a40b4484, 0x349ebed486827, 0x3875872e930b8, 0x629b0a5d052d7, 0x78a1531a8b05d],
                [0x5f1703ad0562b, 0x61924a4346d97, 0x610939e3b3d20, 0x2b7ed75e981fe, 0x72ad82a42e5ec],
            ],
        ),
        comb_entry(
            [
                [0x0967b9e6585a3, 0x4131d317242ab, 0x2ceb6b65f2673, 0x67d08578a4db7, 0x42181fe8f4d38],
                [0x4be62a24d40dd, 0x2208a5a83fe00, 0x29108d2e81966, 0x377c0e22f70b1, 0x4cb829d8a2226],
                [0x4aa8407b86681, 0x3d164cea763b7, 0x0123a04207c00, 0x1161e6be73542, 0x78af11633f25f],
            ],
            [
                [0x68e35bafb65f6, 0x11e4e527427f3, 0x3da8f40e75a7b, 0x736b65c66cac6, 0x1734778173ada],
                [0x0939167024bc3, 0x5a92a05fb586d, 0x17d2ca639a745, 0x5e27e79761e72, 0x065f669ea3b4c],
                [0x0aec75532db4d, 0x4887c63763140, 0x69fd456e1a693, 0x6042507c2a969, 0x19adeb7c303d7],
            ],
        ),
        comb_entry(
            [
                [0x6ebd40b50babc, 0x4c504117dd082, 0x7070db45421c8, 0x6aed18a47d7dc, 0x0d07daacd32d7],
                [0x1c00e7d65318c, 0x39a1d0dbce648, 0x702309b9afb97, 0x6e188c596e17d, 0x680d04a7fc603],
                [0x2414a695aa3eb, 0x180b4d1e43f38, 0x64e58fb6a90b1, 0x271be3611cc3f, 0x210e8cd30c395],
            ],
            [
                [0x0cb6153ead9a3, 0x7ea256c6dd8e4, 0x00a42c556cb25, 0x77158f1adafea, 0x2fd9ccf13b530],
                [0x5ba7d43c31794, 0x7f26644a4d3a0, 0x065d0e091c323, 0x5a9c191ef640b, 0x2852709881569],
                [0x5475b47f796b8, 0x26a8591ea80f7, 0x493e1fb4b1ec0, 0x0eb16de91fa1d, 0x6551afd77b090],
            ],
        ),
        comb_entry(
            [
                [0x201f210a71c06, 0x5de77f6043588, 0x4d8cbdda99782, 0x3a15e2161ae1c, 0x56ea8db1865f0],
                [0x0f16137fe6c26, 0x30adc809b056a, 0x1587daf840af3, 0x648895878a0a6, 0x51b17bc8d028e],
                [0x5fb4bcf535119, 0x73be221141ffe, 0x0ee8c97d26275, 0x3795efe7532cd, 0x18a11f1174d1a],
            ],
            [
                [0x6baaf54aac27f, 0x596548b4508a8, 0x0af3fa3dbd9bf, 0x42fac168dadab, 0x44b123f3920f7],
                [0x24ce3a1d5c9ac, 0x7a21fec8c2d14, 0x74c59baedde8c, 0x11d87c3672212, 0x56507c0950b96],
                [0x6f0b7d1713e63, 0x322b75f8e8240, 0x3676534d4ff8f, 0x5698ca675cb85, 0x62fadd7cf9d03],
            ],
        ),
        comb_entry(
            [
                [0x375ab3f6bba29, 0x31323c905c80e, 0x57e4ba67b0edb, 0x570cce4074172, 0x307c13b6fb0c0],
                [0x63cdad27a5f2c, 0x7915420daff7a, 0x19290c3c03f12, 0x742a9fdae0d47, 0x04eaabe50c1a2],
                [0x51021cb8ab5e7, 0x12b8a021d648e, 0x1584287f08d11, 0x66aaf8f38bda7, 0x44da5f18c2710],
            ],
            [
                [0x5967b5598a074, 0x1d1c927c4b8d6, 0x4a022217bfa47, 0x0616a5b9622a4, 0x20ef1149a2674],
                [0x7bc61e7ce4594, 0x536fba4cfc79a, 0x59bbc9f35acd6, 0x388d04055e421, 0x6ec7c46f59c79],
                [0x7ad636f09a8a2, 0x1c4840bcfa5e0, 0x0d684e61a5f9b, 0x44be0577e02f7, 0x15e80958b5f9d],
            ],
        ),
        comb_entry(
            [
                [0x4c55ff1b82eb5, 0x5a82395ca4067, 0x7eeb34ec56b8d, 0x30fdd205b0cc7, 0x768edce1532e8],
                [0x6fe6b89d8eacc, 0x23c4624d4322a, 0x513ad3b9ade51, 0x1d75eba31ec9c, 0x726373f676720],
                [0x5ca72eb7ef68a, 0x3ee1d5b647c60, 0x3116da198b3cc, 0x65e8c78137eda, 0x513b5384b5d2e],
            ],
            [
                [0x5ef7d0c3e235b, 0x7f7c269dce4b4, 0x7170c9db0e705, 0x79ce3ba709a16, 0x021354b892021],
                [0x1ed355bb061c4, 0x5f28380e009ba, 0x618d0390b7033, 0x221b0982ee0fe, 0x56b2cc930e55a],
                [0x79da6a6bfc5a2, 0x693fbc86d23be, 0x68e429c0bce89, 0x1b1d991ecf966, 0x7be0847b8774d],
            ],
        ),
        comb_entry(
            [
                [0x46280c729989e, 0x20a6d14bba8da, 0x5d96a252e4fef, 0x111b1ef9fc0e8, 0x34cebd64b9a0a],
                [0x702878af34ceb, 0x13728dad5cbc4, 0x2f6144a402c10, 0x7c0b28975fbed, 0x61d9b76988258],
                [0x5a71349b7d94b, 0x3047d7288d4d8, 0x52120d28fcf45, 0x097820b7de93b, 0x69d45e6f2c708],
            ],
            [
                [0x1cc5a8b3f55c3, 0x4a7fbda541193, 0x2dc28d818475c, 0x30cf694caff9b, 0x1f699a54d78a2],
                [0x6f5af5307fa11, 0x7bdad815e428c, 0x6928fee05ff31, 0x6858536f22761, 0x74071475bc927],
                [0x292f373e7ea8a, 0x259608b463cee, 0x49d3f78a594df, 0x4b30de8329f69, 0x2f9a2c4476bd2],
            ],
        ),
    ],
    // 16^12·B | 16^44·B
    [
        comb_entry(
            [
                [0x6f74bc53c1431, 0x1c40e5dbbd9c2, 0x6c8fb9cae5c97, 0x4845c5ce1b7da, 0x7e2e0e450b5cc],
                [0x62b434f460efb, 0x294c6c0fad3fc, 0x68368937b4c0f, 0x5c9f82910875b, 0x237e7dbe00545],
                [0x575ed6701b430, 0x4d3e17fa20026, 0x791fc888c4253, 0x2f1ba99078ac1, 0x71afa699b1115],
            ],
            [
                [0x0b9ab7f5745c6, 0x5caf0f8d21d63, 0x7debea408ea2b, 0x09edb93896d16, 0x36597d25ea5c0],
                [0x4dae0b5511c9a, 0x5257fffe0d456, 0x54108d1eb2180, 0x096cc0f9baefa, 0x3f6bd725da4ea],
                [0x58d7b106058ac, 0x3cdf8d20bee69, 0x00a4cb765015e, 0x36832337c7cc9, 0x7b7ecc19da60d],
            ],
        ),
        comb_entry(
            [
                [0x66f9b3953b61d, 0x555f4283cccb9, 0x7dd67fb1960e7, 0x14707a1affed4, 0x021142e9c2b1c],
                [0x23c1c473b50d6, 0x3e7671de21d48, 0x326fa5547a1e8, 0x50e4dc25fafd9, 0x00731fbc78f89],
                [0x0c71848f81880, 0x44bd9d8233c86, 0x6e8578efe5830, 0x4045b6d7041b5, 0x4c4d6f3347e15],
            ],
            [
                [0x2373c695c690d, 0x4c0c8520dcf18, 0x384af4b7494b9, 0x4ab4a8ea22225, 0x4235ad7601743],
                [0x64a51a77cfa9b, 0x29cf470ca0db5, 0x4b60b6e0898d9, 0x55d04ddffe6c7, 0x03bedc661bf5c],
                [0x0cb0d078975f5, 0x292313e530c4b, 0x38dbb9124a509, 0x350d0655a11f1, 0x0e7ce2b0cdf06],
            ],
        ),
        comb_entry(
            [
                [0x7eccfc17d1fc9, 0x4ca280782831e, 0x7b8337db1d7d6, 0x5116def3895fb, 0x193fddaaa7e47],
                [0x4ddfc988f1970, 0x4f6173ea365e1, 0x645daf9ae4588, 0x7d43763db623b, 0x38bf9500a88f9],
                [0x2c93c37e8876f, 0x3431a28c583fa, 0x49049da8bd879, 0x4b4a8407ac11c, 0x6a6fb99ebf0d4],
            ],
            [
                [0x4643ac48c85a3, 0x6878c2735b892, 0x3a53523f4d877, 0x3a504ed8bee9d, 0x666e0a5d8fb46],
                [0x6fedfd94b70f9, 0x2383f9745bfd4, 0x4beae27c4c301, 0x75aa4416a3f3f, 0x615256138aece],
                [0x3f64e4870cb0d, 0x61548b16d6557, 0x7a261773596f3, 0x7724d5f275d3a, 0x7f0bc810d514d],
            ],
        ),
        comb_entry(
            [
                [0x6c1bb560855eb, 0x71f127e13ad48, 0x5c6b304905aec, 0x3756b8e889bc7, 0x75f76914a3189],
                [0x122b5b6e423c6, 0x21e50dff1ddd6, 0x73d76324e75c0, 0x588485495418e, 0x136fda9f42c5e],
                [0x4dfb1a305bdd1, 0x3b3ff05811f29, 0x6ed62283cd92e, 0x65d1543ec52e1, 0x022183510be8d],
            ],
            [
                [0x06ba426f4136f, 0x3cafc0606b720, 0x518f0a2359cda, 0x5fae5e46feca7, 0x0d1f8dbcf8eed],
                [0x49dad737213a0, 0x745dee5d31075, 0x7b1a55e7fdbe2, 0x5ba988f176ea1, 0x1d3a907ddec5a],
                [0x693313ed081dc, 0x5b0a366901742, 0x40c872ca4ca7e, 0x6f18094009e01, 0x00011b44a31bf],
            ],
        ),
        comb_entry(
            [
                [0x766385ead2d14, 0x0194f8b06095e, 0x08478f6823b62, 0x6018689d37308, 0x6a071ce17b806],
                [0x2710143307a7f, 0x3d88fb48bf3ab, 0x249eb4ec18f7a, 0x136115dff295f, 0x1387c441fd404],
                [0x3c3d187978af8, 0x7afe1c88276ba, 0x51df281c8ad68, 0x64906bda4245d, 0x3171b26aaf1ed],
            ],
            [
                [0x7a06c3fc66c0c, 0x1c9bac1ba47fb, 0x23935c575038e, 0x3f0bd71c59c13, 0x3ac48d916e835],
                [0x61f696a0aa75c, 0x38b0a57ad42ca, 0x1e59ab706fdc9, 0x01308d46ebfcd, 0x63d988a2d2851],
                [0x20753afbd232e, 0x71fbb1ed06002, 0x39cae47a4af3a, 0x0337c0b34d9c2, 0x33fad52b2368a],
            ],
        ),
        comb_entry(
            [
                [0x7319097564ca8, 0x1844ebc233525, 0x21d4543fdeee1, 0x1ad27aaff1bd2, 0x221fd4873cf08],
                [0x5b7d8b28a47d1, 0x2c2ee149e34c1, 0x776f5629afc53, 0x1f4ea50fc49a9, 0x6c514a6334424],
                [0x2204f3a156341, 0x537414065a464, 0x43c0c3bedcf83, 0x5557e706ea620, 0x48daa596fb924],
            ],
            [
                [0x649c6c5e41e16, 0x60667eee6aa80, 0x4179d182be190, 0x653d9567e6979, 0x16c0f429a256d],
                [0x4c8d0c422cfe8, 0x760b4275971a5, 0x3da95bc1cad3d, 0x0f151ff5b7376, 0x3cc355ccb90a7],
                [0x69443903e9131, 0x16f4ac6f9dd36, 0x2ea4912e29253, 0x2b4643e68d25d, 0x631eaf426bae7],
            ],
        ),
        comb_entry(
            [
                [0x28e665ca59cc7, 0x165c715940dd9, 0x0785f3aa11c95, 0x57b98d7e38469, 0x676dd6fccad84],
                [0x61d5dc84c9793, 0x47de83040c29e, 0x189deb26507e7, 0x4d4e6fadc479a, 0x58c837fa0e8a7],
                [0x1688596fc9058, 0x66f6ad403619f, 0x4d759a87772ef, 0x7856e6173bea4, 0x1c4f73f2c6a57],
            ],
            [
                [0x10410da66fe9f, 0x24d82dcb4d67d, 0x3e6fe0e17752d, 0x4dade1ecbb08f, 0x5599648b1ea91],
                [0x175b9a3700de8, 0x77c5f00aa48fb, 0x3917785ca0317, 0x05aa9b2c79399, 0x431f2c7f665f8],
                [0x26344858f7b19, 0x5f43d4a295ac0, 0x242a75c52acd4, 0x5934480220d10, 0x7b04715f91253],
            ],
        ),
        comb_entry(
            [
                [0x24fbd305fa0bb, 0x40a98cc75a1cf, 0x78ce1220a7533, 0x6217a10e1c197, 0x795ac80d1bf64],
                [0x6706efc7c3484, 0x6987839ec366d, 0x0731f95cf7f26, 0x3ae758ebce4bc, 0x70459adb7daf6],
                [0x1db4991b42bb3, 0x469605b994372, 0x631e3715c9a58, 0x7e9cfefcf728f, 0x5fe162848ce21],
            ],
            [
                [0x5bd28acf6ae43, 0x16fab8f56907d, 0x7acb11218d5f2, 0x41fe02023b4db, 0x59b37bf5c2f65],
                [0x6c280c4e6bac6, 0x3ada3b361766e, 0x42fe5125c3b4f, 0x111d84d4aac22, 0x48d0acfa57cde],
                [0x726e47dabe671, 0x2ec45e746f6c1, 0x6580e53c74686, 0x5eda104673f74, 0x16234191336d3],
            ],
        ),
    ],
    // 16^13·B | 16^45·B
    [
        comb_entry(
            [
                [0x10aae4d077c41, 0x61b6e8d347c4f, 0x2f45a8a2e4e09, 0x5b9375b196e45, 0x720814ecaa064],
                [0x429c795115389, 0x0f0c5ee99c62b, 0x649d0cb5f8394, 0x0f206253b10c2, 0x72de6c984a25a],
                [0x2b553bf6aa310, 0x5300dadc375d3, 0x7fd44e4142942, 0x0c5c95dba01d6, 0x0394d27645be6],
            ],
            [
                [0x2eac733a63aef, 0x3a88848a9de33, 0x6579104b1fee9, 0x07aaed43d5023, 0x413051e1a4e0b],
                [0x5d1fd3d578bbe, 0x658650c2110a5, 0x33889ccad9739, 0x5a032c603fa75, 0x0933f804ec38a],
                [0x369798d496476, 0x3df96b57914f5, 0x54e51ca0486ab, 0x28d52ee0977bd, 0x07fd47065e453],
            ],
        ),
        comb_entry(
            [
                [0x72251857eedf4, 0x3bc33d278a9aa, 0x5e5c0d78dc93b, 0x3a1c538a10705, 0x3b3c833687abe],
                [0x16425b23545a4, 0x7d31f7652dea7, 0x5bf7618569e89, 0x27755b6295e31, 0x79d995a841933],
                [0x28ea61195dd75, 0x503bb3505f9b1, 0x561e6da941362, 0x5452a06e540d1, 0x60dd16a379c86],
            ],
            [
                [0x03c3d258d2bcd, 0x1b5ec16e7f90b, 0x5a8de045c0a69, 0x591fd07e4eb20, 0x1c1e5fba38b3f],
                [0x211559ae8e7c3, 0x532891054a608, 0x6094393ca06c8, 0x47a4509d6171b, 0x014afa0954ba4],
                [0x197001bb3666c, 0x2497ffd973966, 0x2208cf0cc0181, 0x1b2149b88cc8d, 0x291884363d4ed],
            ],
        ),
        comb_entry(
            [
                [0x2c8487381e559, 0x4daf0105966b4, 0x69ed94d65bffa, 0x342e5cbb8f5ed, 0x5a08b5019b4da],
                [0x1d6f8153e47b8, 0x282945ec186a0, 0x576548edea59d, 0x5450897745b22, 0x4e62a3c18112e],
                [0x4ac04516ab786, 0x42a52b647b91a, 0x408c305656bcc, 0x0e66b76e91a6d, 0x0929efe8825b4],
            ],
            [
                [0x46805dc4babfa, 0x3cab2dd982067, 0x66c74ecb056fd, 0x7628de383125a, 0x3ede9850a19f0],
                [0x537c3bc1ab6eb, 0x269aaf4481f73, 0x29787d80af851, 0x0c47a6b9a0afc, 0x5964f4300ccc8],
                [0x223152d096800, 0x32e10cd32dc89, 0x2bfedb9702315, 0x6c4ef96db0523, 0x579155c1f856f],
            ],
        ),
        comb_entry(
            [
                [0x601d1cbd0f2d3, 0x5ec26576febe0, 0x6377a1dcdb904, 0x29e41b0221911, 0x1e3a5272f5c07],
                [0x172b7ad56651d, 0x747f57ae2f166, 0x137db9005606d, 0x42796e4a6fb21, 0x30376e5d2c292],
                [0x18da78159a59c, 0x327e0e27e7a52, 0x3359641af7073, 0x0942b2fbd49a5, 0x53daacec4cb4c],
            ],
            [
                [0x24edd12e0c9ef, 0x1be484052f2c6, 0x3d5cef91a2e1e, 0x4950ccd1bbb52, 0x1e7fbcf18e91e],
                [0x16b630817e7a6, 0x46786a204d6be, 0x33bc8060231a4, 0x1a299254c1daa, 0x53c092084a485],
                [0x41481f1cbafbf, 0x6ce2c2e9cba5a, 0x29572608c74b6, 0x2fb05bebb2b71, 0x3e955cd82aa49],
            ],
        ),
        comb_entry(
            [
                [0x73bd79cc8a7d6, 0x1e8fd35364994, 0x3d7f8013529ce, 0x3a97a65f894a1, 0x01a13ff9bdbf0],
                [0x52bc3852cfdb0, 0x2ab3adda17330, 0x56b09ecb304ba, 0x74cb87cf15fcd, 0x4f3b8c117959a],
                [0x6c9c82ff26412, 0x123f6ccf50ab6, 0x5de2fc86b12a3, 0x1df6a93dfe7f5, 0x303337da7012a],
            ],
            [
                [0x7535e3ed15433, 0x541ae4e147c91, 0x3798e1f41d5a4, 0x2faa07de90ed5, 0x14264887cf449],
                [0x1f3ef61bb3a3f, 0x4a5d72327d567, 0x3047dd23ad001, 0x24fdaef37661c, 0x654d7e9626f3c],
                [0x4cfdd5c7d2ceb, 0x3dae6f9973cac, 0x7e6c2ae0bbabf, 0x6ddb083edb168, 0x0b6baac3b4358],
            ],
        ),
        comb_entry(
            [
                [0x422228c1c9d7c, 0x6e3536681f2aa, 0x16d235c07eb04, 0x18dbf46c8bbc9, 0x53f8ad5661b3e],
                [0x53ccbfad2fdd1, 0x2e6f4c81512ed, 0x4d32c972e220e, 0x69597f8060eb3, 0x269ff4dc789c2],
                [0x03fbdc08d678d, 0x46fd5a562e180, 0x3960bc53660be, 0x522603f35e6d9, 0x296c7291df412],
            ],
            [
                [0x62bcb8622fe98, 0x2d9d71235ef5c, 0x3901ad11dd889, 0x2808d2d495e79, 0x7d29401784e41],
                [0x2bad63700a93b, 0x27b4ef26e6409, 0x4eadc26f8008f, 0x2096c2f81a331, 0x00496dc490820],
                [0x4b88dc27e6360, 0x4d1a290a1838e, 0x0372cc01d2150, 0x591d0a2fdbd9f, 0x10843f1b43803],
            ],
        ),
        comb_entry(
            [
                [0x3de2b33daf397, 0x33934c4966f20, 0x56cf86343fc18, 0x3e0450e9295aa, 0x2b6d581c52e0b],
                [0x23205dab8b59e, 0x41901244a1bf6, 0x1c97461196baa, 0x3e8e899e08c4d, 0x2327370261f11],
                [0x543d3623e7986, 0x0584f146a87a0, 0x1865bd99e5053, 0x55d5721f86639, 0x7836c41f8245e],
            ],
            [
                [0x10455376276dd, 0x1baec8b9b38bf, 0x4d9ace7396456, 0x362497b2ea88e, 0x11574b6e52699],
                [0x7672de324689b, 0x5b67295303aad, 0x5a33fb7476a2b, 0x0f46ebdac7f48, 0x7ce246cd4d56c],
                [0x4308e7f80be53, 0x166953a72f71e, 0x730acb17cf2e3, 0x3388c54b0de99, 0x710045fb3a9af],
            ],
        ),
        comb_entry(
            [
                [0x254db49e95a81, 0x2011615ae7cf4, 0x02bf01d464b57, 0x79c269072d8e8, 0x5d55f8012cf25],
                [0x51e848011937c, 0x5cdde8345194c, 0x4fe354b1ac311, 0x4fedb810dd3af, 0x119dff99ead7b],
                [0x2dfcbf4b31d4d, 0x682229112487d, 0x034ec5f1940fd, 0x5647f77346283, 0x329293b3dd4a0],
            ],
            [
                [0x13d36101b95eb, 0x729ede890ce7f, 0x457958bebbccd, 0x6d0ab28b9afc7, 0x7fa3f19058b40],
                [0x7c862059d699e, 0x4334c33cd3407, 0x608f7ac8dc33e, 0x227627f1d8917, 0x1d1b056fa7f08],
                [0x64631e56bf61f, 0x20dca70546378, 0x5005a374de6ac, 0x47226ac62bf02, 0x566256628442d],
            ],
        ),
    ],
    // 16^14·B | 16^46·B
    [
        comb_entry(
            [
                [0x1214fe194961a, 0x0e1ae39a9e9cb, 0x543c8b526f9f7, 0x119498067e91d, 0x4789d446fc917],
                [0x1852d5d7cb208, 0x60d0fbe5ce50f, 0x5a1e246e37b75, 0x51aee05ffd590, 0x2b44c043677da],
                [0x487ab074eb78e, 0x1d33b5e8ce343, 0x13e419feb1b46, 0x2721f565de6a4, 0x60c52eef2bb9a],
            ],
            [
                [0x499def6267ff6, 0x76e858108773c, 0x693cac5ddcb29, 0x00311d00a9ff4, 0x2cdfdfecd5d05],
                [0x19cd61ff38640, 0x060c6c4b41ba9, 0x75cf70ca7366f, 0x118a8f16c011e, 0x4a25707a203b9],
                [0x7668a53f6ed6a, 0x303ba2e142556, 0x3880584c10909, 0x4fe20000a261d, 0x5721896d248e4],
            ],
        ),
        comb_entry(
            [
                [0x589bc3bfd8bf1, 0x6f93e6aa3416b, 0x4c0a3d6c1ae48, 0x55587260b586a, 0x10bc9c312ccfc],
                [0x3c5c27cae6d11, 0x36a9491956e05, 0x124bac9131da6, 0x3b6f7de202b5d, 0x70d77248d9b66],
                [0x2e84b3ec2a05b, 0x69da2f03c1551, 0x23a174661a67b, 0x209bca289f238, 0x63755bd3a976f],
            ],
            [
                [0x65517fd181bae, 0x3e5772c76816d, 0x019189640898a, 0x1ed2a84de7499, 0x578edd74f63c1],
                [0x55091a1d0da4e, 0x4f6bfc7c1050b, 0x64e4ecd2ea9be, 0x07eb1f28bbe70, 0x03c935afc4b03],
                [0x276c6492b0c3d, 0x09bfc40bf932e, 0x588e8f11f330b, 0x3d16e694dc26e, 0x3ec2ab590288c],
            ],
        ),
        comb_entry(
            [
                [0x7a03e2ad10853, 0x213dcc6ad36ab, 0x1a6e240d5bdd6, 0x7c24ffcf8fedf, 0x0d8cc1c48bc16],
                [0x7101897f1acb7, 0x3d82cb77b07b8, 0x684083d7769f5, 0x52b28472dce07, 0x2763751737c52],
                [0x402d36eb419a9, 0x7cef68c14a052, 0x0f1255bc2d139, 0x373e7d431186a, 0x70c2dd8a7ad16],
            ],
            [
                [0x0d27be4d87bb9, 0x56c27235db434, 0x72e6e0ea62d37, 0x5674cd06ee839, 0x2dd5c25a200fc],
                [0x13a09ae32d1cb, 0x3e81eb85ab4e4, 0x07aaca43cae1f, 0x62f05d7526374, 0x0e1bf66c6adba],
                [0x3d5e9792c887e, 0x319724dabbc55, 0x2b97c78680800, 0x7afdfdd34e6dd, 0x730548b35ae88],
            ],
        ),
        comb_entry(
            [
                [0x194509f6fec0e, 0x528d8ca31acac, 0x7826d73b8b9fa, 0x24acb99e0f9b3, 0x2e0fac6363948],
                [0x4967db8ed7e13, 0x15aeed02f523a, 0x6149591d094bc, 0x672f204c17006, 0x32b8613816a53],
                [0x7f7bee448cd64, 0x4e10f10da0f3c, 0x3936cb9ab20e9, 0x7a0fc4fea6cd0, 0x4179215c735a4],
            ],
            [
                [0x551a3cba8b8ee, 0x3b6422be2d886, 0x630e1419689bc, 0x4653b07a7a955, 0x3043443b411db],
                [0x3094ba1d6e334, 0x6e126a7e3300b, 0x089c0aefcfbc5, 0x2eea11f836583, 0x585a2277d8784],
                [0x25f8233d48962, 0x6bd8f04aff431, 0x4f907fd9a6312, 0x40fd3c737d29b, 0x7656278950ef9],
            ],
        ),
        comb_entry(
            [
                [0x094e7d7dced2a, 0x068fa738e118e, 0x41b640a5fee2b, 0x6bb709df019d4, 0x700344a30cd99],
                [0x633b9286bcd34, 0x6cab3badb9c95, 0x74e387edfbdfa, 0x14313c58a0fd9, 0x31fa85662241c],
                [0x26c422e3622f4, 0x0f3066a05b5f0, 0x4e2448f0480a6, 0x244cde0dbf095, 0x24bb2312a9952],
            ],
            [
                [0x3cf59d51fc8c0, 0x7a0a0d6de4718, 0x55c3a3e6fb74b, 0x353135f884fd5, 0x3f4160a8c1b84],
                [0x073a3ea86cf9d, 0x6e0e2abfb9c2e, 0x60e2a38ea33ee, 0x30b2429f3fe18, 0x28bbf484b613f],
                [0x12f5c6f136c7c, 0x0fedba237de4c, 0x779bccebfab44, 0x3aea93f4d6909, 0x1e79cb358188f],
            ],
        ),
        comb_entry(
            [
                [0x0ed1732de67c3, 0x308c369291635, 0x33ef348f2d250, 0x004475ea1a1bb, 0x0fee3e871e188],
                [0x00c2af5f85c6b, 0x0609f4cf2883f, 0x6e86eb5a1ca13, 0x68b44a2efccd1, 0x0d1d2af9ffeb5],
                [0x28aa132621edf, 0x42b244caf353b, 0x66b064cc2e08a, 0x6bb20020cbdd3, 0x16acd79718531],
            ],
            [
                [0x436c3eef7e3f1, 0x7ffd3c21f0026, 0x3e77bf20a2da9, 0x418bffc8472de, 0x65d7951b3a3b3],
                [0x153d8f5e08181, 0x08533bbdb2efd, 0x1149796129431, 0x17a6e36168643, 0x478ab52d39d1f],
                [0x6a4d39252d159, 0x790e35900ecd4, 0x30725bf977786, 0x10a5c1635a053, 0x16d87a411a212],
            ],
        ),
        comb_entry(
            [
                [0x772af2d9b1d3d, 0x6d486448b4e5b, 0x2ce58dd8d18a8, 0x1849f67503c8b, 0x123e0ef6b9302],
                [0x1c6c57887b6ad, 0x5abf21fd7592b, 0x50bd41253867a, 0x3800b71273151, 0x164ed34b18161],
                [0x6d94c192fe69a, 0x5475222a2690f, 0x693789d86b8b3, 0x1f5c3bdfb69dc, 0x78da0fc61073f],
            ],
            [
                [0x57e5a42066215, 0x1a18b44983677, 0x3e652de1e6f8f, 0x6532be02ed8eb, 0x28f87c8165f38],
                [0x4d5e2d54e0583, 0x2e5d7b33f5f74, 0x3a5de3f887ebf, 0x6ef24bd6139b7, 0x1f990b577a5a6],
                [0x44ead1be8f7d6, 0x5759d4f31f466, 0x0378149f47943, 0x69f3be32b4f29, 0x45882fe1534d6],
            ],
        ),
        comb_entry(
            [
                [0x15d28e52bc66a, 0x30e1e0351cb7e, 0x30a2f74b11f8c, 0x39d120cd7de03, 0x2d25deeb256b1],
                [0x780f1680c3a94, 0x2a35d3cfcd453, 0x005e5cdc7ddf8, 0x6ee888078ac24, 0x054aa4b316b38],
                [0x0468d19267cb8, 0x38cdca9b5fbf9, 0x1bbb05c2ca1e2, 0x3b015758e9533, 0x134610a6ab7da],
            ],
            [
                [0x1345d757983d6, 0x222f54234cccd, 0x1784a3d8adbb4, 0x36ebeee8c2bcc, 0x688fe5b8f626f],
                [0x49929943c6fe4, 0x4347072545b15, 0x3226bced7e7c5, 0x03a134ced89df, 0x7dcf843ce405f],
                [0x0d6484a4732c0, 0x7b94ac6532d92, 0x5771b8754850f, 0x48dd9df1461c8, 0x6739687e73271],
            ],
        ),
    ],
    // 16^15·B | 16^47·B
    [
        comb_entry(
            [
                [0x55ec27c59b23f, 0x7c2a9a09e595e, 0x50507d266bbb4, 0x05134220eb970, 0x140345133932a],
                [0x430e0dc028c3c, 0x50a42f8ee3b22, 0x26687e83ae556, 0x21e2584f0f696, 0x42881af2bd6a7],
                [0x6c69aab5cad3d, 0x2699659f5af7f, 0x4df5a8b08fa33, 0x50c342ee8a5fd, 0x0ad6d64415677],
            ],
            [
                [0x5c5ea200814cf, 0x42d3462e813ec, 0x722d2b61014db, 0x30ec587689c92, 0x0080dbafe9363],
                [0x5aad0c9cb971f, 0x533faa945319c, 0x6be6de0455aaa, 0x4d520fb92380a, 0x1fe8cca8420f4],
                [0x1848f3c0cc82a, 0x050ef93ca8e54, 0x1550500e31583, 0x6b8a802711467, 0x042418a103429],
            ],
        ),
        comb_entry(
            [
                [0x2439e417becb5, 0x19a21c04ccf03, 0x24ab0912b164e, 0x119aed1c28883, 0x11b065a2ade31],
                [0x4892847927e9f, 0x5e6e1550eef22, 0x4489c0ccf6b5b, 0x2c90fc7927d08, 0x5265ac2f2adf9],
                [0x7dd309afcb346, 0x0851cc7ea880b, 0x596aabb65c8f5, 0x404ca600ef82f, 0x43e4dc3ae14c0],
            ],
            [
                [0x5ea51abf3ff5f, 0x4e5f85b175133, 0x1baf5726e4ea1, 0x5ae961c65cbdf, 0x114d578497263],
                [0x04c6f20816247, 0x6dc6dfaf26b1d, 0x521361636caca, 0x5ebcbb8c12b0e, 0x0822024f8632a],
                [0x1bb7c6b1beca3, 0x5b8dd626eb660, 0x6db93ad54e4fd, 0x751c88694084b, 0x1ad4548d9d479],
            ],
        ),
        comb_entry(
            [
                [0x2c7f1a938a517, 0x56630165c3782, 0x73495291cc0a2, 0x4879fbc2b8f7d, 0x74e534426ff6f],
                [0x77ac3adc2c6a3, 0x6dd2e2f929d4d, 0x117abd743a4a3, 0x5df7169bcf56b, 0x46dd8785c51ff],
                [0x001be375c8898, 0x6bc7fb0690e13, 0x48c1c512c1b6a, 0x6213ac4067693, 0x2b09468fdd2f4],
            ],
            [
                [0x27da0389a48fd, 0x5534f06e3d9ab, 0x36e39b2ce3e92, 0x221e36cbb0d96, 0x35cf51dbc97e1],
                [0x7e66d0fe9fed3, 0x0038b0f21340d, 0x7e6254ea1cce9, 0x12c1868a6c006, 0x41ce5876c7b30],
                [0x43bc5d670c022, 0x213623280cb35, 0x5e0bf6bab99f0, 0x0494bcc5ef859, 0x651e3201fd074],
            ],
        ),
        comb_entry(
            [
                [0x749eeb701cb96, 0x296d46d3872f8, 0x100b3660fd0e3, 0x7bdb14b15c5cd, 0x6976c7509888d],
                [0x7946582ffa02a, 0x23fd51ea92b72, 0x5debe6f6825a9, 0x73b5031a89baf, 0x1bcfde61201d1],
                [0x25490246a59a2, 0x3dd0ffbb20949, 0x48dc7eb58faf7, 0x76b6ca1be3386, 0x69e87308d30f8],
            ],
            [
                [0x58483ef30c5cf, 0x2c46c39819ac7, 0x2109ab13352d2, 0x775f748728052, 0x0af51d7d18c14],
                [0x3a4a01efcae9e, 0x5db86115294af, 0x00f2cb9da7d2f, 0x13c68f887759b, 0x4099ce5e7e441],
                [0x18e4f8a5121e9, 0x09b7f45fc0359, 0x10c37e5f6ba55, 0x7dac1905506eb, 0x667282652c4a2],
            ],
        ),
        comb_entry(
            [
                [0x28bb15656beb0, 0x749e9ab79486b, 0x52301d7e3eb26, 0x3115cd93c620a, 0x3eb0ef76e892b],
                [0x0bf028bc80303, 0x66f4319df61f0, 0x4b35a8daab85a, 0x4d56ea3f523eb, 0x61943588f4ed3],
                [0x65c3e91039f85, 0x7bede67553a4d, 0x019aa4f03a79d, 0x6eef44b462ab8, 0x3c34d1881faaa],
            ],
            [
                [0x621f4d86bc9ab, 0x7cadfcdfd50e8, 0x6b708b2d531ee, 0x69c83bd1212bf, 0x1ab53be419b90],
                [0x0b6e02946db23, 0x34f64a756f5b5, 0x375216c703394, 0x56fc224642d33, 0x7f1fc025d0675],
                [0x61b18319ea6aa, 0x107443e1b5b1d, 0x0e93d2c013620, 0x68a1deb550ec4, 0x4db9a3a6dfd9f],
            ],
        ),
        comb_entry(
            [
                [0x52b5ea09f9ec0, 0x5f6c4751207f3, 0x3649b1076aced, 0x1b6d04dd1f539, 0x374193513fd8b],
                [0x30b8f2fffe0d9, 0x207da49f737ab, 0x1a08711aa8950, 0x1b51563ebde59, 0x605b394b60dca],
                [0x056e45a9d1ed2, 0x6cd92f534569d, 0x17bb9f7bfa121, 0x647d88267b20f, 0x2f50b81c88a71],
            ],
            [
                [0x7b23bb99c0755, 0x5b89ea1ef519c, 0x66d430cd7175b, 0x6d0bf0f176976, 0x36305f16e8934],
                [0x300bbcbb77c68, 0x5523e2f093b2b, 0x0a366cf76f211, 0x79f3e7b80575f, 0x5ce1285c85d31],
                [0x6972d98b0bde8, 0x0d594dbcb6636, 0x229967df6481c, 0x11af339887c48, 0x50fac2a6efdf0],
            ],
        ),
        comb_entry(
            [
                [0x23c61fc6811bb, 0x10c423001e62e, 0x6655d4e72d141, 0x7e6bb4499e9a3, 0x3491a53502752],
                [0x52ca0a7da522a, 0x6c893604a056a, 0x2e67ee4c8c2cc, 0x511796262de52, 0x7b2c674958074],
                [0x165883ed28cdf, 0x25a6c5bc73aaa, 0x4de393c4b613f, 0x73a0543a569f1, 0x000d2b1f7c763],
            ],
            [
                [0x3a9f35b880f5a, 0x19b607cf85e7a, 0x7c2c68bb7b014, 0x252544b4c0ffc, 0x49a4ae2bac5e3],
                [0x31c86f6f449bc, 0x143e1569ba52b, 0x239547546cba1, 0x3316000e59855, 0x6a28d35944f43],
                [0x312ee04a740e0, 0x7b379d02e8517, 0x304310050c4ee, 0x6adb97adaf274, 0x7cbfb19936adc],
            ],
        ),
        comb_entry(
            [
                [0x20811d06d4a67, 0x0b21c1ffc67a8, 0x521ef7afbf012, 0x5147c38635bde, 0x6e2a7316319af],
                [0x4778c3e94a8ab, 0x1dd34f17d92c4, 0x5d0f13c2b5bcf, 0x6664a4563c086, 0x76627935aaecf],
                [0x0ac24d6d59a9f, 0x7c612de00cad5, 0x5314a67236dd4, 0x08a23bfa0f347, 0x588d851cf6c86],
            ],
            [
                [0x1ddc26b89792d, 0x0db4a24cc9462, 0x45421646cc2d3, 0x2040653bda667, 0x1de443df1b009],
                [0x13a7acc36e6e0, 0x46fab0dddb1cf, 0x387d393e7eade, 0x23f1d27cb495d, 0x1c14b03eff5f4],
                [0x47bd114a85291, 0x642069a75e32c, 0x675b7e95eddb2, 0x249b194eda207, 0x5ef43e586a571],
            ],
        ),
    ],
    // 16^16·B | 16^48·B
    [
        comb_entry(
            [
                [0x38ec78df6b0fe, 0x13caebea36a22, 0x5ebc6e54e5f6a, 0x32804903d0eb8, 0x2102fdba2b20d],
                [0x265e777d1f515, 0x0f1f54c1e39a5, 0x2f01b95522646, 0x4fdd8db9dde6d, 0x654878cba97cc],
                [0x6e405055ce6a1, 0x5024a35a532d3, 0x1f69054daf29d, 0x15d1d0d7a8bd5, 0x0ad725db29ecb],
            ],
            [
                [0x02014385675a6, 0x6155fb53d1def, 0x37ea32e89927c, 0x059a668f5a82e, 0x46115aba1d4dc],
                [0x5cc9dc80c1ac0, 0x683671486d4cd, 0x76f5f1a5e8173, 0x6d5d3f5f9df4a, 0x7da0b8f68d7e7],
                [0x71953c3b5da76, 0x6642233d37a81, 0x2c9658076b1bd, 0x5a581e63010ff, 0x5a5f887e83674],
            ],
        ),
        comb_entry(
            [
                [0x267b1834e2457, 0x6ae19c378bb88, 0x7457b5ed9d512, 0x3280d783d05fb, 0x4aefcffb71a03],
                [0x7bc0c9b056f85, 0x51cfebffaffd8, 0x44abbe94df549, 0x7ecbbd7e33121, 0x4f675f5302399],
                [0x536360415171e, 0x2313309077865, 0x251444334afbc, 0x2b0c3853756e8, 0x0bccbb72a2a86],
            ],
            [
                [0x301cf70a13d11, 0x2a6a1ba1891ec, 0x2f291fb3f3ae0, 0x21a7b814bea52, 0x3669b656e44d1],
                [0x628d3a0a643b9, 0x01cd8640c93d2, 0x0b7b0cad70f2c, 0x3864da98144be, 0x43e37ae2d5d1c],
                [0x63f06eda6e133, 0x233342758070f, 0x098e0459cc075, 0x4df5ead6c7c1b, 0x6a21e6cd4fd5e],
            ],
        ),
        comb_entry(
            [
                [0x6962feab1a9c8, 0x6aca28fb9a30b, 0x56db7ca1b9f98, 0x39f58497018dd, 0x4024f0ab59d6b],
                [0x55e4c50fe1296, 0x05fdd13efc30d, 0x1c0c6c380e5ee, 0x3e11de3fb62a8, 0x6678fd69108f3],
                [0x6fa31636863c2, 0x10ae5a67e42b0, 0x27abbf01fda31, 0x380a7b9e64fbc, 0x2d42e2108ead4],
            ],
            [
                [0x6170a3046e65f, 0x5401a46a49e38, 0x20add5561c4a8, 0x7abb4edde9e46, 0x586bf9f1a195f],
                [0x129126699b2e3, 0x0ee11a2603de8, 0x60ac2f5c74c21, 0x59b192a196808, 0x45371b07001e8],
                [0x3088d5ef8790b, 0x38c2126fcb4db, 0x685bae149e3c3, 0x0bcd601a4e930, 0x0eafb03790e52],
            ],
        ),
        comb_entry(
            [
                [0x5131594dfd29b, 0x3a627e98d52fe, 0x1154041855661, 0x19175d09f8384, 0x676b2608b8d2d],
                [0x17b0d0f537593, 0x16263c0c9842e, 0x4ab827e4539a4, 0x6370ddb43d73a, 0x420bf3a79b423],
                [0x0ba651c5b2b47, 0x5862363701027, 0x0c4d6c219c6db, 0x0f03dff8658de, 0x745d2ffa9c0cf],
            ],
            [
                [0x555c13748042f, 0x4d041754232c0, 0x521b430866907, 0x3308e40fb9c39, 0x309acc675a02c],
                [0x0805e0f75ae1d, 0x464cc59860a28, 0x248e5b7b00bef, 0x5d99675ef8f75, 0x44ae3344c5435],
                [0x289b9bba543ee, 0x3ab592e28539e, 0x64d82abcdd83a, 0x3c78ec172e327, 0x62d5221b7f946],
            ],
        ),
        comb_entry(
            [
                [0x25a1e2bc9c8bd, 0x104c8f3b037ea, 0x405576fa96c98, 0x2e86a88e3876f, 0x1ae23ceb960cf],
                [0x6df5721d34e6a, 0x4f32f767a0c06, 0x1d5abeac76e20, 0x41ce9e104e1e4, 0x06e15be54c1dc],
                [0x25d871932994a, 0x6b9d63b560b6e, 0x2df2814c8d472, 0x0fbbee20aa4ed, 0x58ded861278ec],
            ],
            [
                [0x4299c18d0936d, 0x5914183418a49, 0x52a18c721aed5, 0x2b151ba82976d, 0x5c0efde4bc754],
                [0x5d4263af77a3c, 0x23fdd2289aeb0, 0x7dc64f77eb9ec, 0x01bd28338402c, 0x14f29a5383922],
                [0x17edc25b2d7f5, 0x37336a6081bee, 0x7b5318887e5c3, 0x49f6d491a5be1, 0x5e72365c7bee0],
            ],
        ),
        comb_entry(
            [
                [0x73793f266c55c, 0x0b988a9c93b02, 0x09b0ea32325db, 0x37cae71c17c5e, 0x2ff39de85485f],
                [0x35ba8b6c2c9a8, 0x1dea58b3185bf, 0x4b455cd23bbbe, 0x5ec19c04883f8, 0x08ba696b531d5],
                [0x53eeec3efc57a, 0x2fa9fe9022efd, 0x699c72c138154, 0x72a751ebd1ff8, 0x120633b4947cf],
            ],
            [
                [0x3fc074571217f, 0x3a0d29b2b6aeb, 0x06478ccdde59d, 0x55e4d051bddfa, 0x77f1104c47b4e],
                [0x339062f08b33e, 0x4bbf3e657cfb2, 0x67af7f56e5967, 0x4dbd67f9ed68f, 0x70b20555cb734],
                [0x113c555112c4c, 0x7535103f9b7ca, 0x140ed1d9a2108, 0x02522333bc2af, 0x0e34398f4a064],
            ],
        ),
        comb_entry(
            [
                [0x4987891610042, 0x79d9d7f5d0172, 0x3c293013b9ec4, 0x0c2b85f39caca, 0x35d30a99b4d59],
                [0x531474912100a, 0x5afcdf7c0d057, 0x7a9e71b788ded, 0x5ef708f3b0c88, 0x07433be3cb393],
                [0x144c05ce997f4, 0x4960b8a347fef, 0x1da11f15d74f7, 0x54fac19c0fead, 0x2d873ede7af6d],
            ],
            [
                [0x522d93ecebde8, 0x024f045e0f6cf, 0x16db63426cfa1, 0x1b93a1fd30fd8, 0x5e5405368a362],
                [0x30b093e4b1928, 0x1ce7e7ec80312, 0x4e575bdf78f84, 0x61f7a190bed39, 0x6f8aded6ca379],
                [0x0123dfdb7b29a, 0x4344356523c68, 0x79a527921ee5f, 0x74bfccb3e817e, 0x780de72ec8d3d],
            ],
        ),
        comb_entry(
            [
                [0x2316443373409, 0x5de95503b22af, 0x699201beae2df, 0x3db5849ff737a, 0x2e773654707fa],
                [0x202e14e5df981, 0x2ea02bc3eb54c, 0x38875b2883564, 0x1298c513ae9dd, 0x0543618a01600],
                [0x2bdf4974c23c1, 0x4b3b9c8d261bd, 0x26ae8b2a9bc28, 0x3068210165c51, 0x4b1443362d079],
            ],
            [
                [0x28545089ae7bc, 0x1e38fe9a0c15c, 0x12046e0e2377b, 0x6721c560aa885, 0x0eb28bf671928],
                [0x7eaf300f42772, 0x5455188354ce3, 0x4dcca4a3dcbac, 0x3d314d0bfebcb, 0x1defc6ad32b58],
                [0x3be1aef5195a7, 0x6f22f62bdb5eb, 0x39768b8523049, 0x43394c8fbfdbd, 0x467d201bf8dd2],
            ],
        ),
    ],
    // 16^17·B | 16^49·B
    [
        comb_entry(
            [
                [0x037f753242cec, 0x19808425e48f7, 0x764a31495b712, 0x603f1117dfdf0, 0x48ea295bad8a2],
                [0x31c3f57c5715e, 0x3cd6d0db20533, 0x48d6ace5b2e4a, 0x7f09802403223, 0x2c435c24a44d9],
                [0x7c97c80f8833f, 0x71944bd8b60c0, 0x07aedbc3a1455, 0x4072a7ba2858b, 0x7bcb4792a0def],
            ],
            [
                [0x6ee72f7bd2e6b, 0x2c21357e9cf20, 0x506a2901749c3, 0x143c6ae7f22dc, 0x44c218671c974],
                [0x79d56296bc318, 0x29b02a5ccae8b, 0x0e7a73a64d603, 0x0e05872d89fac, 0x51fc2b28d4392],
                [0x7d11795e2a98c, 0x4256d6c522371, 0x092d5c871397b, 0x5632d9873883a, 0x6e6b9de84c4f4],
            ],
        ),
        comb_entry(
            [
                [0x7e3d02bc73659, 0x0a0b32f3bf090, 0x2b5befd2ebe11, 0x35b68be4bad6e, 0x57369f0bdefc9],
                [0x4d0a0045224c2, 0x36d3ca72a439d, 0x227da05d5fc6c, 0x0a43badbd4929, 0x1b6cc62016736],
                [0x1990175638698, 0x7ddd54c1a7e35, 0x26e9220d4f746, 0x188c24a3899a6, 0x63fa6e6843ade],
            ],
            [
                [0x25fce4b1de151, 0x0fc238804bbfe, 0x1d2721f610703, 0x6fc92aa59e42a, 0x2d292459908e0],
                [0x45f10f80cb088, 0x38adc842a2d6f, 0x3be6711cdad53, 0x7a1615b1052e3, 0x5f4c802cc3a06],
                [0x5c8f17d0752da, 0x718efdd00136c, 0x58be78e20738c, 0x6a461da8a782d, 0x66ed5dd5bec10],
            ],
        ),
        comb_entry(
            [
                [0x420536597c168, 0x0131a50f13a2b, 0x15ee87e7dcdd0, 0x78a0c5773f899, 0x3418bfda07346],
                [0x5becdd24b5eb7, 0x19819a89f2432, 0x72a7b797907c6, 0x6b3ef9403a220, 0x07073b98f35b7],
                [0x4676c4ce530d4, 0x0e76bbf3e9a07, 0x6ce8c782d9301, 0x164832e77c58c, 0x3084d66153310],
            ],
            [
                [0x0a1c20bb2089d, 0x432d99a824fa7, 0x25f4c4e020cd3, 0x790625385c636, 0x2eacf8bc03007],
                [0x5f3c9cbca047d, 0x17e8aa5ed7e15, 0x1cd7e4e070ecb, 0x24667ed0896a2, 0x1f23a0c77e200],
                [0x5467be5bc1570, 0x041b756719e46, 0x3e782780f4b64, 0x62813a94d517e, 0x0840bef29d34b],
            ],
        ),
        comb_entry(
            [
                [0x6b79ebf8469ad, 0x09c4cc626bc3e, 0x5d0606c560040, 0x39e4d24c19857, 0x3ba2504f049b6],
                [0x4e876760321fd, 0x213d6c75b134d, 0x3201649ff8ad4, 0x11d0073ea5745, 0x73d86b7abb6f7],
                [0x2b5606dba5ab6, 0x1f7763db5616a, 0x41298d6a44d3c, 0x2ed9854a906cd, 0x6813b8f37973e],
            ],
            [
                [0x5fb35dc10b287, 0x1ab8ffe53af2d, 0x6c924149c5daf, 0x13b3f9ea1f463, 0x0304f5a191c54],
                [0x4e06b7f37e4eb, 0x0febd2d9959aa, 0x565f73a33057e, 0x0065c1245d869, 0x246affa060744],
                [0x08e68fbe45321, 0x1181aea0646fb, 0x52834d61825d5, 0x192a74d89f7c4, 0x25a83cac5753d],
            ],
        ),
        comb_entry(
            [
                [0x4b054334127c1, 0x7105f7fe4b30a, 0x061bd3c417411, 0x4806da4fbfca2, 0x1768e838bed0b],
                [0x4ca56f3157e29, 0x60bdea514be32, 0x41666f04db4d5, 0x1f6eea677bbc5, 0x7d5472af24f83],
                [0x7874daf33da47, 0x3b6dc673f3a1d, 0x273bb38034ef9, 0x1ad1f954517ce, 0x5d1aeb7923524],
            ],
            [
                [0x22f48eed8165e, 0x4697179e74204, 0x087a3c188ff04, 0x3180f0a2e04e1, 0x7ccfa59fca782],
                [0x766293952b6e2, 0x1c12684cf73e1, 0x027fb70cf6d78, 0x064ffa29295eb, 0x06be10f5c506e],
                [0x615a9b62a345f, 0x2c94a5fd98352, 0x2f037f8881431, 0x38ed3d13c4294, 0x5e82770a1a1ee],
            ],
        ),
        comb_entry(
            [
                [0x66bb319cd63ca, 0x2443a0d073eb3, 0x5432ad99c3056, 0x151d836ab2d90, 0x20fb199d104f1],
                [0x7bfaeb61ba775, 0x3fc4c77ffa258, 0x210373ee13988, 0x31a05a3d2e1ae, 0x7e83be0bccaf8],
                [0x43dee6d99c120, 0x5c8c173fc0c32, 0x3a1663618407c, 0x2e635d978a8c7, 0x76b76289fcc47],
            ],
            [
                [0x25183ad896a5c, 0x77cf1aa5ec6a8, 0x28d7d93a19ceb, 0x0811633792fc9, 0x09d04f3b3b86b],
                [0x2e80a42339c74, 0x4d4ffff5cbd00, 0x10232b8d05d45, 0x2f71a432e8f8e, 0x2cca982c605bc],
                [0x55d35197dbe6e, 0x5517c9ff47fa5, 0x16ba46081f0bb, 0x69f1309ec6d99, 0x7a325d1727741],
            ],
        ),
        comb_entry(
            [
                [0x34cc1756286fa, 0x2fae942af8f23, 0x1caf79b6f3b4c, 0x474bf399210f5, 0x01fe18491131c],
                [0x5f1a1522ec0b3, 0x6454eacada848, 0x286cf01561e16, 0x04f8ea42d12a4, 0x60959eccd58fe],
                [0x7eb7ba8ed7a09, 0x77ca04f1387d7, 0x04650a127f70a, 0x7a52275e72e9e, 0x35e1eb55be947],
            ],
            [
                [0x6b9bbd16dfde2, 0x2f892f5053a06, 0x7c4999e88155d, 0x0c0473664b353, 0x4d3b1a791239c],
                [0x27d017e2a076a, 0x3e2c6c92bdd9a, 0x648cf975e21a2, 0x73229530d7848, 0x2a479df17bb1a],
                [0x6ee8e33db2710, 0x3dad88794b3cb, 0x1c604e0626153, 0x74dd20e1162c9, 0x27ad5538a43a5],
            ],
        ),
        comb_entry(
            [
                [0x2e701c5738dd3, 0x6b64de37ddb7b, 0x3c57bd3e71bd8, 0x26c30f4b54021, 0x3aa1d11faf60a],
                [0x56dfa726ccc74, 0x7c5ea772ca29f, 0x28b22d0ec2133, 0x335799d727aa9, 0x59aab07a0d401],
                [0x4ec4c925eac25, 0x08c026ee70ef7, 0x2a7d1446121c6, 0x5232d9ba19bff, 0x1865e78ec8e6a],
            ],
            [
                [0x6dd4b15350d61, 0x11dd2a436e4e8, 0x619cb2b40ff2f, 0x4f174371b2d09, 0x510e987f7e7d8],
                [0x27d638e47077c, 0x42414380b396b, 0x7b7f73236dd4d, 0x3ceaa4f0f26c5, 0x080153b7503b1],
                [0x69d930a3ed3e3, 0x639ac14e45bb4, 0x6a93b98f4e1bb, 0x395640bd6ac5e, 0x23be8d554fe73],
            ],
        ),
    ],
    // 16^18·B | 16^50·B
    [
        comb_entry(
            [
                [0x4b7c7b66e1f7a, 0x4bea185efd998, 0x4fabc711055f8, 0x1fb9f7836fe38, 0x582f446752da6],
                [0x454e91c529ccb, 0x24c98c6bf72cf, 0x0486594c3d89a, 0x7ae13a3d7fa3c, 0x17038418eaf66],
                [0x17bd320324ce4, 0x51489117898c6, 0x1684d92a0410b, 0x6e4d90f78c5a7, 0x0c2a1c4bcda28],
            ],
            [
                [0x6919a74ef4fad, 0x59ed4611452bf, 0x691ec04ea09ef, 0x3cbcb2700e984, 0x71c43c4f5ba3c],
                [0x6f4bd567ae7a9, 0x65ac89317b783, 0x07d3b20fd8932, 0x000f208326916, 0x2ef9c5a5ba384],
                [0x56df6fa9e74cd, 0x79c95e4cf56df, 0x7be643bc609e2, 0x149c12ad9e878, 0x5a758ca390c5f],
            ],
        ),
        comb_entry(
            [
                [0x5c7d06f1f0447, 0x7db70f80b3a49, 0x6cb4a3ec89a78, 0x43be8ad81397d, 0x7c558bd1c6f64],
                [0x4814869bd6945, 0x7b7c391a45db8, 0x57316ac35b641, 0x641e31de9096a, 0x5a6a9b30a314d],
                [0x41524d396463d, 0x1586b449e1a1d, 0x2f17e904aed8a, 0x7e1d2861d3c8e, 0x0404a5ca0afba],
            ],
            [
                [0x72710d9462495, 0x25aafaa007456, 0x2d21f28eaa31b, 0x17671ea005fd0, 0x2dbae244b3eb7],
                [0x0918b1d61dc94, 0x0d350260cd19c, 0x7a2ab4e37b4d9, 0x21fea735414d7, 0x0a738027f639d],
                [0x74a2f57ffe1cc, 0x1bc3073087301, 0x7ec57f4019c34, 0x34e082e1fa524, 0x2698ca635126a],
            ],
        ),
        comb_entry(
            [
                [0x740070aa743d6, 0x16b64cbdd1183, 0x23f4b7b32eb43, 0x319aba58235b3, 0x46395bfdcadd9],
                [0x49e1b2a416fd1, 0x51c6a0b316c57, 0x575a59ed71bdc, 0x74c021a1fec1e, 0x39527516e7f8e],
                [0x7db2d1a5d9a9c, 0x79a200b85422f, 0x355bfaa71dd16, 0x00b77ea5f78aa, 0x76579a29e822d],
            ],
            [
                [0x5318832b0ba78, 0x6f24b9ff17cec, 0x0a47f30e060c7, 0x58384540dc8d0, 0x1fb43dcc49cae],
                [0x5702f5e3dd90e, 0x31c9a4a70c5c7, 0x136a5aa78fc24, 0x1992f3b9f7b01, 0x3c004b0c4afa3],
                [0x146ac06f4b82b, 0x4b500d89e7355, 0x3351e1c728a12, 0x10b9f69932fe3, 0x6b43fd01cd1fd],
            ],
        ),
        comb_entry(
            [
                [0x68e7e49c02a17, 0x45795346fe8b6, 0x089306c8f3546, 0x6d89f6b2f88f6, 0x43a384dc9e05b],
                [0x4b51352b434f2, 0x1327bd01c2667, 0x434d73b60c8a1, 0x3e0daa89443ba, 0x02c514bb2a277],
                [0x3d5da8bf1b645, 0x7ded6a96a6d09, 0x6c3494fee2f4d, 0x02c989c8b6bd4, 0x1160920961548],
            ],
            [
                [0x75d4b4697c544, 0x11be1fff7f8f4, 0x119e16857f7e1, 0x38a14345cf5d5, 0x5a68d7105b52f],
                [0x742583e760ef3, 0x73dc1573216b8, 0x4ae48fdd7714a, 0x4f85f8a13e103, 0x73420b2d6ff0d],
                [0x4f6cb9e851e06, 0x278c4471895e5, 0x7efcdce3d64e4, 0x64f6d455c4b4c, 0x3db5632fea34b],
            ],
        ),
        comb_entry(
            [
                [0x5166929dacfaa, 0x190826b31f689, 0x4f55567694a7d, 0x705f4f7b1e522, 0x351e125bc5698],
                [0x05616369b4dcd, 0x4ecab86ac6f47, 0x3c60085d700b2, 0x0213ee10dfcea, 0x2f637d7491e6e],
                [0x49b461af67bbe, 0x75915712c3a96, 0x69a67ef580c0d, 0x54d38ef70cffc, 0x7f182d06e7ce2],
            ],
            [
                [0x6ee2bf75dd9d8, 0x6c72ceb34be8d, 0x679c9cc345ec7, 0x7898df96898a4, 0x04321adf49d75],
                [0x190b1829825d5, 0x0e7d3513225c9, 0x1c12be3b7abae, 0x58777781e9ca6, 0x59197ea495df2],
                [0x16019e4e55aae, 0x74fc5f25d209c, 0x4566a939ded0d, 0x66063e716e0b7, 0x45eafdc1f4d70],
            ],
        ),
        comb_entry(
            [
                [0x48e64ab0168ec, 0x2a2bdb8a86f4f, 0x7343b6b2d6929, 0x1d804aa8ce9a3, 0x67d4ac8c343e9],
                [0x54b728e217522, 0x69a90971b0128, 0x51a40f2a963a3, 0x10be9ac12a6bf, 0x44acc043241c5],
                [0x56bbb4f7a5777, 0x29230627c238f, 0x5ad1a122cd7fb, 0x0dea56e50e364, 0x556d1c8312ad7],
            ],
            [
                [0x401858045d72b, 0x459e5e0ca2d30, 0x488b719308bea, 0x56f4a0d1b32b5, 0x5a5eebc80362d],
                [0x64624cfccb1ed, 0x257ab8072b6c1, 0x0120725676f0a, 0x4a018d04e8eee, 0x3f73ceea5d56d],
                [0x7bfd10a4e8dc6, 0x7c899366736f4, 0x55ebbeaf95c01, 0x46db060903f8a, 0x2605889126621],
            ],
        ),
        comb_entry(
            [
                [0x740e30c8d3982, 0x7c2b47f4682fd, 0x5cd91b8c7dc1c, 0x77fa790f9e583, 0x746c6c6d1d824],
                [0x06756b11be821, 0x462147e7bb03e, 0x26519743ebfe0, 0x782fc59682ab5, 0x097abe38cc8c7],
                [0x1c9877ea52da4, 0x2b37b83a86189, 0x733af49310da5, 0x25e81161c04fb, 0x577e14a34bee8],
            ],
            [
                [0x704a68360ff04, 0x3cecc3cde8b3e, 0x21cd5470f64ff, 0x6abc18d953989, 0x54ad0c2e4e615],
                [0x18e3cc676e542, 0x26079d995a990, 0x04a7c217908b2, 0x1dc7603e6655a, 0x0dedfa10b2444],
                [0x367d5b82b522a, 0x0d3f4b83d7dc7, 0x3067f4cdbc58d, 0x20452da697937, 0x62ecb2baa77a9],
            ],
        ),
        comb_entry(
            [
                [0x268ac61a73b0a, 0x206f234bebe1c, 0x5b403a7cbebe8, 0x7a160f09f4135, 0x60fa7ee96fd78],
                [0x6cebebd4dd72b, 0x340c1e442329f, 0x32347ffd1a93f, 0x14a89252cbbe0, 0x705304b8fb009],
                [0x51d354d296ec6, 0x7cbf5a63b16c7, 0x2f50bb3cf0c14, 0x1feb385cac65a, 0x21398e0ca1635],
            ],
            [
                [0x5795261152b3d, 0x7a1dbbafa3cbd, 0x5ad31c52588d5, 0x45f3a4164685c, 0x2e59f919a966d],
                [0x72836afb62874, 0x0af3c2094b240, 0x0c285297f357a, 0x7cc2d5680d6e3, 0x61913d5075663],
                [0x62d361a3231da, 0x65284004e01b8, 0x656533be91d60, 0x6ae016c00a89f, 0x3ddbc2a131c05],
            ],
        ),
    ],
    // 16^19·B | 16^51·B
    [
        comb_entry(
            [
                [0x2b2ca8da7d2ef, 0x3b33e8504e42d, 0x774f1d4d9ab67, 0x73157325c8027, 0x403a395b53909],
                [0x5fc16861b7e9a, 0x0ed44f88a30d8, 0x7a4d65fda8cc1, 0x7f580b33933d0, 0x05ffb9cd6082d],
                [0x7fa9ff53f6139, 0x4a27ccd96d4c2, 0x5122a9183cad7, 0x0c96bd45f77d9, 0x7a2932856f5ea],
            ],
            [
                [0x0a50a4ffb81ef, 0x1277e8417e7ea, 0x2a8b342c780d4, 0x5204dd5470e63, 0x32239861fa237],
                [0x35ac2004a35d1, 0x0674cc0f87f6e, 0x4a35664c7783d, 0x2863dc2c8dfe2, 0x55be9a25f5bb0],
                [0x05acd33db3dbf, 0x7901586bc41a0, 0x623afac0446cd, 0x5e6a4496b3637, 0x770eadb16508f],
            ],
        ),
        comb_entry(
            [
                [0x1d761b02de888, 0x7da4829c3e167, 0x386a5017d5439, 0x5ccd35fd22c11, 0x050a2f7dfd447],
                [0x4444879639302, 0x26a18cfe59713, 0x06be7192b93c6, 0x00bf859aed464, 0x39d0003546871],
                [0x43b33a650db77, 0x3b758a576486f, 0x6df4c61aebfa0, 0x3677f4ca01696, 0x2b5b7eec372ba],
            ],
            [
                [0x1f9e05e4e89dd, 0x7f78f2726f08a, 0x2992573018c0b, 0x1fdae913a4aab, 0x09a6755ca0560],
                [0x3b681a05071b9, 0x346b25fe75e3a, 0x2079038881d96, 0x3a72f80b494bc, 0x16bedd0e86ba3],
                [0x4cc4f2c2737b5, 0x185b996e06bd9, 0x310f7cd0ede78, 0x36019f0045e27, 0x06c1b840f0756],
            ],
        ),
        comb_entry(
            [
                [0x44bbd83f50eef, 0x331924f0cd677, 0x2df99b9423c32, 0x46ca1f3b2c3e4, 0x0f7655a3a47f9],
                [0x4404d613ac8f4, 0x57f52fce594d2, 0x73b08414030f0, 0x47743a082690f, 0x1b205fb38604a],
                [0x4ad37d24b133c, 0x7ac0719216abd, 0x0b1bfb9107851, 0x65732b341d0eb, 0x0157d5dc87e0e],
            ],
            [
                [0x0a5c6a388f877, 0x29bd656d58ed1, 0x630abe00aa5b0, 0x76b3264f9a18d, 0x3628435554a1e],
                [0x69e7f9b02805c, 0x14a8fa2c80d3d, 0x10c25a32ffe0a, 0x4b91ec9d434d9, 0x46b7b8cd3fe26],
                [0x12086fe7eebe0, 0x4e5ea2a86fd30, 0x5bbeba532e9af, 0x65c8e820b45a8, 0x5ea1391043982],
            ],
        ),
        comb_entry(
            [
                [0x7af510354c13d, 0x0b546e56c1e54, 0x68f51c35e82c5, 0x0b99434dcb502, 0x6528e42d82460],
                [0x65514d71eb524, 0x02bbe28b272a4, 0x5379adf980f62, 0x4280a3e6fa086, 0x5293b1730437c],
                [0x0e0814bccf226, 0x1b032df72647a, 0x550796e4b1d17, 0x4bc45b0bcb62c, 0x40a44df0c021f],
            ],
            [
                [0x25c9cf4702ee1, 0x3f164b665a922, 0x07fbdf91482dc, 0x595998c981328, 0x656d8997c8d2e],
                [0x33be4d5d3b002, 0x32d4139100de5, 0x2f31332bfb0cf, 0x4c581afb9d254, 0x22c5b92846621],
                [0x0c8fe433d8939, 0x5cd51afca196b, 0x7eef96a26832c, 0x0833ce54aa984, 0x0c626616cd7fc],
            ],
        ),
        comb_entry(
            [
                [0x069894f20ea6a, 0x2298c40c31b55, 0x42fe2fba8528f, 0x6783000fe6584, 0x35f4e822947e9],
                [0x16e514bc5d095, 0x31f94d00950d9, 0x09ba977c83502, 0x567939b1ec4e4, 0x39ca36565719c],
                [0x06f2f6f87b75c, 0x400695c0e12ea, 0x34d375b1892ba, 0x2c78f642b71d5, 0x055b0be0e440e],
            ],
            [
                [0x6b80a4879b61f, 0x5c95b443da3ff, 0x20096e98e59c9, 0x3c419e3d8499b, 0x471aa0c6f3c31],
                [0x7c379fbf454b1, 0x61e3496ee31fb, 0x34d64551696a5, 0x0c956490f7bdd, 0x42d088dca81c2],
                [0x20f37a0165199, 0x6f9141c6871fb, 0x1d7a0802b6b6d, 0x373907dfefe64, 0x1cf2bea80c220],
            ],
        ),
        comb_entry(
            [
                [0x1a17d89735d12, 0x2bccc573e2c8d, 0x0e55a076dbc9f, 0x792cfe5d19435, 0x363b8004d269a],
                [0x2a04b6ea33da2, 0x2bc6c24dba9a2, 0x113659d5f3d30, 0x55648764b3af7, 0x64ca348d2a985],
                [0x08e19e4c4912d, 0x1c394b9cd732b, 0x16e6357bf30ed, 0x40ca29175307d, 0x7064bbab1de4a],
            ],
            [
                [0x5f1deb36202ac, 0x13a5c4f54b85b, 0x027c74e4a97f8, 0x4acbe8b247b7e, 0x74c2cc0513bc4],
                [0x56e1a02c0412f, 0x07b6b1d1fd305, 0x2c62f0243e932, 0x63300e17ade6e, 0x686e0c90216ab],
                [0x5badba54395a7, 0x415c1b4cd43f5, 0x68df01ed0680a, 0x186df8cfacc5d, 0x6a12b8acde484],
            ],
        ),
        comb_entry(
            [
                [0x1e1515a770641, 0x0e9cff0073723, 0x7c8c426a68b8b, 0x3c5ba9392859e, 0x756a7330ac27b],
                [0x0c06142542129, 0x5d7d1ab721452, 0x2aff86fcb8b0a, 0x35fe7922c6dbb, 0x02157ade83d62],
                [0x6972a1b9a038b, 0x54fdc07f687c8, 0x36ed328b93b99, 0x2b1c0d1243bb7, 0x1a944ee88ecd0],
            ],
            [
                [0x2ea1f39d495d9, 0x1ca4be3bf9f1b, 0x664746d64b064, 0x65bedc65e8264, 0x11f7fda3d88f0],
                [0x3dd801aaeeb5f, 0x5582a310e2f27, 0x484dad0028a82, 0x78cf451b9d18f, 0x48aab888fc91e],
                [0x77e925830f40e, 0x52f2cc380c083, 0x411a8b800b5b2, 0x1e8c36e4ffc95, 0x760360928b049],
            ],
        ),
        comb_entry(
            [
                [0x11d1151039372, 0x6f33944dbdab5, 0x4d9adacbb4dde, 0x4cad0b901567e, 0x0730291bd6901],
                [0x0a859182362d6, 0x6f149a3577768, 0x61567dae67d55, 0x1ad468c5a13ba, 0x26c20fe74d262],
                [0x51d9fe9cc22f5, 0x3251baaef8c91, 0x490e7459af158, 0x5a4a3e9f690b2, 0x49d271acedaf8],
            ],
            [
                [0x341c6120cf9c6, 0x25bd9b4b36437, 0x2922cd3aacaa8, 0x5b460d3968105, 0x215d4d27e87d3],
                [0x108e5695a0b05, 0x515a6f4717686, 0x54dce05b2c03b, 0x1122f6d6b7751, 0x3f2602d4b6dc3],
                [0x247b65bcaf19c, 0x0763658ca5916, 0x7b38b8925de77, 0x01cc4d0c05dea, 0x13f098a3cec8e],
            ],
        ),
    ],
    // 16^20·B | 16^52·B
    [
        comb_entry(
            [
                [0x5058a382b33f3, 0x175a91816913e, 0x4f6cdb96b8ae8, 0x17347c9da81d2, 0x5aa3ed9d95a23],
                [0x0aaf9b4b75601, 0x26b91b5ae44f3, 0x6de808d7ab1c8, 0x6a769675530b0, 0x1bbfb284e98f7],
                [0x777e9c7d96561, 0x28e58f006ccac, 0x541bbbb2cac49, 0x3e63282994cec, 0x4a07e14e5e895],
            ],
            [
                [0x40ff9ce5ec54b, 0x57185e261b35b, 0x3e254540e70a9, 0x1b5814003e3f8, 0x78968314ac04b],
                [0x257a22796bb14, 0x6f360fb443e75, 0x680e47220eaea, 0x2fcf2a5f10c18, 0x5ee7fb38d8320],
                [0x5fdcb41446a8e, 0x5286926ff2a71, 0x0f231e296b3f6, 0x684a357c84693, 0x61d0633c9bca0],
            ],
        ),
        comb_entry(
            [
                [0x412cb980df999, 0x5e78dd8ee29dc, 0x171dff68c575d, 0x2015dd2f6ef49, 0x3f0bac391d313],
                [0x358cdc477a49b, 0x3cc88fe02e481, 0x721aab7f4e36b, 0x0408cc9469953, 0x50af7aed84afa],
                [0x7de0115f65be5, 0x4242c21364dc9, 0x6b75b64a66098, 0x0033c0102c085, 0x1921a316baebd],
            ],
            [
                [0x44935ffdb2566, 0x12f016d176c6e, 0x4fbb00f16f5ae, 0x3fab78d99402a, 0x6e965fd847aed],
                [0x328bcf8fc73df, 0x3b4de06ff95b4, 0x30aa427ba11a5, 0x5ee31bfda6d9c, 0x5b23ac2df8067],
                [0x2b953ee80527b, 0x55f5bcdb1b35a, 0x43a0b3fa23c66, 0x76e07388b820a, 0x79b9bbb9dd95d],
            ],
        ),
        comb_entry(
            [
                [0x22f7edfb870fc, 0x569eed677b128, 0x30937dcb0a5af, 0x758039c78ea1b, 0x6458df41e273a],
                [0x2ad9ad9f3c18b, 0x5ec1638339aeb, 0x5703b6559a83b, 0x3fa9f4d05d612, 0x7b049deca062c],
                [0x3e37a35444483, 0x661fdb7d27b99, 0x317761dd621e4, 0x7323c30026189, 0x6093dccbc2950],
            ],
            [
                [0x355406a3126c2, 0x50d1918727d76, 0x6e5ea0b498e0e, 0x0a3b6063214f2, 0x5065f158c9fd2],
                [0x17dae8e9f7374, 0x719f76102da33, 0x5117c2a80ca8b, 0x41a66b65d0936, 0x1ba811460accb],
                [0x169fb0c429954, 0x59aedd9ecee10, 0x39916eb851802, 0x57917555cc538, 0x3981f39e58a4f],
            ],
        ),
        comb_entry(
            [
                [0x39a8585e0706d, 0x3167ce72663fe, 0x63d14ecdb4297, 0x4be21dcf970b8, 0x57d1ea084827a],
                [0x6eebe6084034b, 0x6cf01f70a8d7b, 0x0b41a54c6670a, 0x6c84b99bb55db, 0x6e3180c98b647],
                [0x2b6e7a128b071, 0x5b27511755dcf, 0x08584c2930565, 0x68c7bda6f4159, 0x363e999ddd97b],
            ],
            [
                [0x38a7559230a93, 0x52c1cde8ba31f, 0x2a4f2d4745a3d, 0x07e9d42d4a28a, 0x38dc083705acd],
                [0x5dfa56de66fde, 0x0058809075908, 0x6d3d8cb854a94, 0x5b2f4e970b1e3, 0x30f4452edcbc1],
                [0x52782c5759740, 0x53f3397d990ad, 0x3a939c7e84d15, 0x234c4227e39e0, 0x632d9a1a593f2],
            ],
        ),
        comb_entry(
            [
                [0x043c135ee1fc4, 0x2a11c9919f2d5, 0x6334cc25dbacd, 0x295da17b400da, 0x48ee9b78693a0],
                [0x048dce24baec6, 0x2b75795ec05e3, 0x3bfa4c5da6dc9, 0x1aac8659e371e, 0x231f979bc6f9b],
                [0x1de4bcc2af3c6, 0x61fc411a3eb86, 0x53ed19ac12ec0, 0x209dbc6b804e0, 0x079bfa9b08792],
            ],
            [
                [0x36b15b807cba6, 0x3f78a9e1afed7, 0x0a59c2c608f1f, 0x52bdd8ecb81b7, 0x0b24f48847ed4],
                [0x1fd11ed0c84a7, 0x021b3ed2757e1, 0x73e1de58fc1c6, 0x5d110c84616ab, 0x3a5a7df28af64],
                [0x2d4be511beac7, 0x6bda4d99e5b9b, 0x17e6996914e01, 0x7b1f0ce7fcf80, 0x34fcf74475481],
            ],
        ),
        comb_entry(
            [
                [0x03a51da300df4, 0x467b52b561c72, 0x4d5920210e590, 0x0ca769e789685, 0x038c77f684817],
                [0x1ed80a2d54245, 0x70efec72a5e79, 0x42151d42a822d, 0x1b5ebb6d631e8, 0x1ef4fb1594706],
                [0x65ee65b167bec, 0x052da19b850a9, 0x0408665656429, 0x7ab39596f9a4c, 0x575ee92a4a0bf],
            ],
            [
                [0x7e04c789767ca, 0x1671b28cfb832, 0x7e57ea2e1c537, 0x1fbaaef444141, 0x3d3bdc164dfa6],
                [0x31dab78cfaa98, 0x4e3216e5e54b7, 0x249823973b689, 0x2584984e48885, 0x0119a3042fb37],
                [0x2d89ce8c2177d, 0x6cd12ba182cf4, 0x20a8ac19a7697, 0x539fab2cc72d9, 0x56c088f1ede20],
            ],
        ),
        comb_entry(
            [
                [0x080908a182fcf, 0x0532913b7ba98, 0x3dccf78c385c3, 0x68002dd5eaba9, 0x43d4e7112cd3f],
                [0x6bc450aa4d801, 0x4f4a6773b0ba8, 0x6241b0b0ebc48, 0x40d9c4f1d9315, 0x200a1e7e382f5],
                [0x5b967eaf93ac5, 0x360acca580a31, 0x1c65fd5c6f262, 0x71c7f15c2ecab, 0x050eca52651e4],
            ],
            [
                [0x53d1110a86e17, 0x6416eb65f466d, 0x41ca6235fce20, 0x5c3fc8a99bb12, 0x09674c6b99108],
                [0x35fac24f38f02, 0x7d75c6197ab03, 0x33e4bc2a42fa7, 0x1c7cd10b48145, 0x038b7ea483590],
                [0x6f82199316ff8, 0x05d54f1a9f3e9, 0x3bcc5d0bd274a, 0x5b284b8d2d5ad, 0x6e5e31025969e],
            ],
        ),
        comb_entry(
            [
                [0x31ade453f0c9c, 0x3dfee07737868, 0x611ecf7a7d411, 0x2637e6cbd64f6, 0x4b0ee6c21c58f],
                [0x4397660e668ea, 0x7c2a75692f2f5, 0x3b29e7e6c66ef, 0x72ba658bcda9a, 0x6151c09fa131a],
                [0x55c0dfdf05d96, 0x405569dcf475e, 0x05c5c277498bb, 0x18588d95dc389, 0x1fef24fa800f0],
            ],
            [
                [0x462f587e593fb, 0x3d94ba7ce362d, 0x330f9b52667b7, 0x5d45a48e0f00a, 0x08f5114789a8d],
                [0x4fb0e63066222, 0x130f59747e660, 0x041868fecd41a, 0x3105e8c923bc6, 0x3058ad43d1838],
                [0x40ffde57663d0, 0x71445d4c20647, 0x2653e68170f7c, 0x64cdee3c55ed6, 0x26549fa4efe3d],
            ],
        ),
    ],
    // 16^21·B | 16^53·B
    [
        comb_entry(
            [
                [0x6123a6b6c6609, 0x0b0156b271692, 0x709e97e9d43fa, 0x49e7a38df9cdb, 0x507903ce77ac1],
                [0x1a66a90166220, 0x5cb7e3c013ff2, 0x6437df3c8954a, 0x7dcbeffc2ec3f, 0x4f620ffe0c736],
                [0x10d65dfde3e34, 0x2573f4bf5ac5f, 0x05914433ca316, 0x6424ce4377ce3, 0x25d448044a256],
            ],
            [
                [0x338d787ce8f89, 0x4482f3511ae71, 0x544c5b6d89963, 0x2e49839c64e78, 0x49128c7f72727],
                [0x3bc17f75396b9, 0x2fa5f0ce8c09b, 0x4faaf19a79a8b, 0x2e963204eccfa, 0x606175f6332e2],
                [0x1370ef540e7dd, 0x6b43e3a14a804, 0x41ae01c24435b, 0x11aa31a5566ad, 0x6a39e6356944f],
            ],
        ),
        comb_entry(
            [
                [0x0230ec7e9b16f, 0x03838af2bb7ad, 0x6dac7fc3ac6e7, 0x7af3ca1e4624a, 0x2f9faf620bbac],
                [0x44415c9022b55, 0x03025d63fc58f, 0x6d978355a8349, 0x593781750e4eb, 0x4180512fd5323],
                [0x73e698a48a5db, 0x0d7b2a807749f, 0x756d976e9a8e0, 0x17dcfbe70d7a3, 0x15e087e55939d],
            ],
            [
                [0x55640df90f3e7, 0x1db7f44bd52d9, 0x78cf311b0e9d8, 0x72c1279f784ac, 0x42889e7e530d2],
                [0x1965774049e9d, 0x4331fc6a563b4, 0x148da9bef35ba, 0x37158e5e6a866, 0x1f5ec83d3f984],
                [0x323c3328ccb75, 0x0fbb0eddd31df, 0x7eb9e5abd0a88, 0x7a8907ded6e2e, 0x241e246b06bf9],
            ],
        ),
        comb_entry(
            [
                [0x07543745c1496, 0x7bb470c218244, 0x1c70d3f6bfcf3, 0x6f4f273cb9396, 0x39c07b1934bde],
                [0x4186efb963f38, 0x01b8c737ab112, 0x5b0726522803a, 0x330d2740495f4, 0x5a097d54ca573],
                [0x5892b17c9e755, 0x6512611bf05a8, 0x16e2f6740cff5, 0x03cb617f4eca9, 0x2edbecf1c11cc],
            ],
            [
                [0x68e57ad6e98f6, 0x10168c40ca53c, 0x47aed2d324983, 0x04b9f80431752, 0x5bc2c77fb38d9],
                [0x2fc9a6280bbb8, 0x25e807b012fd5, 0x7f234808a9c3c, 0x1f718e7205d8d, 0x2bc65635e8bd5],
                [0x5dc9fa96bad93, 0x7bbc328fb9d1a, 0x4617e8f963ec5, 0x418340a997532, 0x1fdd6c3b034a7],
            ],
        ),
        comb_entry(
            [
                [0x6a4e3c715a0d2, 0x61f0683a9a2c2, 0x7a2672d4d88f2, 0x5534b77a994e3, 0x3d4e8dbba668b],
                [0x70fddd087a25f, 0x2ab87c69dddc1, 0x6acead671d4c5, 0x1d933062b9747, 0x0854fc44544cd],
                [0x3a0c555edad19, 0x7de1507bccc3d, 0x6ea97e092d4cf, 0x7469dbb821441, 0x678f82b898a47],
            ],
            [
                [0x4e28c55dc18fe, 0x326733d7ba14c, 0x38b994b8f7e7a, 0x6073cd62191b8, 0x35ff7fc33ae4c],
                [0x3a6a52dd8f7a9, 0x187dfb957f382, 0x023ded4b6ec7e, 0x4f2cb0f19202f, 0x48c8a121bbe6c],
                [0x15a7c59646445, 0x2f82516c2bf88, 0x7eee44b4892cb, 0x7d5b01ae4e482, 0x42d7a91274429],
            ],
        ),
        comb_entry(
            [
                [0x11d0bd6900c54, 0x593a264c6d629, 0x4d8af24d4e5c8, 0x4efa6dc944905, 0x4d7cd1fea68b6],
                [0x1d94057775696, 0x3879b2a3b63c1, 0x2f385bfbb4499, 0x4fa7d4ed61590, 0x0f7f76e0e8d08],
                [0x1ebc5d485b00c, 0x25c95b66ca6db, 0x0467336896592, 0x6afe0b2ca4061, 0x45306349186e0],
            ],
            [
                [0x213e3eaf72ed3, 0x348759a9ce9cc, 0x2d4232d9e5260, 0x2997faa3e6f37, 0x6fed19dd10fcb],
                [0x48947933da5bc, 0x1d85d2f3d9534, 0x796b131296248, 0x0a3cb6c400009, 0x453692d74b48b],
                [0x75d99a8559c6f, 0x01be007c49bae, 0x24a299bd0a885, 0x1162911f114ed, 0x063f46ba6d38f],
            ],
        ),
        comb_entry(
            [
                [0x5d0c1a6cdff1d, 0x2bd084275d29b, 0x4bf3da957dbc4, 0x0b7b649afc2cc, 0x067ee0f54a37f],
                [0x414ec2b072491, 0x024f4f6cb72d4, 0x2292bc06ec886, 0x32fb69424acb7, 0x65f3b08ccd277],
                [0x29fff199801f7, 0x3f4541ee5fd96, 0x7f4bd2674d874, 0x7f112f88e91ba, 0x124cefe80fe10],
            ],
            [
                [0x242895f536694, 0x0a85273659a5a, 0x776e57328ce8b, 0x6aecc37d6d363, 0x5a152c042f712],
                [0x43cb737346921, 0x0e7191288e730, 0x114c1fa9d1fec, 0x03465c6c018d1, 0x67810f8e6d82f],
                [0x38fbcd2287db4, 0x4603407d267dd, 0x6609969cb1f4e, 0x201aa39f4465e, 0x7324aa515921b],
            ],
        ),
        comb_entry(
            [
                [0x26cf9d18df255, 0x5228f4c76c982, 0x724ed7f0751c7, 0x35116369e39f9, 0x6be3a6a2e3ff8],
                [0x0e85b31b16489, 0x6fb6e217f62a3, 0x52b88e63eab72, 0x0609cd85efa50, 0x05f4cbea503d2],
                [0x40e9ec04145bc, 0x4411ed06999c0, 0x6211e8f1c7fd3, 0x5d2deaa3746d5, 0x64666aa0a4d2a],
            ],
            [
                [0x142f46c3cbe8e, 0x628e61808d0af, 0x0f106fe874d92, 0x2e90e476c8a69, 0x0838e161eef6d],
                [0x3f6dae82354cb, 0x556cae34db5a4, 0x638df45a58940, 0x097cdb28b1b71, 0x5cac5005d1a33],
                [0x154cce9e39904, 0x1709bcd08d198, 0x6f975b96ce810, 0x781626c530e58, 0x40fb897bd8861],
            ],
        ),
        comb_entry(
            [
                [0x1435a7c06d912, 0x43767f0616d08, 0x72f89e32848f0, 0x0236a59bd93d8, 0x1d753b84c76f5],
                [0x53bf73337e94c, 0x7c23c29e2b618, 0x4c31d41f2d5a5, 0x23425c255d60c, 0x28dd4abfe0640],
                [0x0b64c44cb9f44, 0x59c724bb7efb8, 0x4115f10628f86, 0x4973d181a4316, 0x4c498bf78a0c8],
            ],
            [
                [0x5aa9062de37a1, 0x001a3b2dc3098, 0x2490b65087694, 0x06d3c41431835, 0x3c5e464a690d1],
                [0x6d8475ab10761, 0x40dfa26e8dcaf, 0x40958c9c50d78, 0x73d9a17c12766, 0x4b16281ea8791],
                [0x101d50b813381, 0x22eddcd051a38, 0x0fd90277b983c, 0x425065b44499c, 0x6183c565f6ff4],
            ],
        ),
    ],
    // 16^22·B | 16^54·B
    [
        comb_entry(
            [
                [0x653fb1aa73196, 0x607faec8306fa, 0x4e85ec83e5254, 0x09f56900584fd, 0x544d49292fc86],
                [0x2aff530976b86, 0x0d85a48c0845a, 0x796eb963642e0, 0x60bee50c4b626, 0x28005fe6c8340],
                [0x7ba9f34528688, 0x284a20fb42d5d, 0x3652cd9706ffe, 0x6fd7baddde6b3, 0x72e472930f316],
            ],
            [
                [0x55a461e6bf9d6, 0x78eeef4b02e83, 0x1d34f648c16cf, 0x07fea2aba5132, 0x1926e1dc6401e],
                [0x68549af3f666e, 0x09e2941d4bb68, 0x2e8311f5dff3c, 0x6429ef91ffbd2, 0x3a10dfe132ce3],
                [0x74e8aea17cea0, 0x0c743f83fbc0f, 0x7cb03c4bf5455, 0x68a8ba9917e98, 0x1fa1d01d861e5],
            ],
        ),
        comb_entry(
            [
                [0x5208c9781084f, 0x16468a1dc24d2, 0x7bf780ac540a8, 0x1a67eced75301, 0x5a9d2e8c2733a],
                [0x3f635d32a7627, 0x0cbecacde00fe, 0x3411141eaa936, 0x21c1e42f3cb94, 0x1fee7f000fe06],
                [0x305da03dbf7e5, 0x1228699b7aeca, 0x12a23b2936bc9, 0x2a1bda56ae6e9, 0x00f94051ee040],
            ],
            [
                [0x055947d599832, 0x346fe2aa41990, 0x0164c8079195b, 0x799ccfb7bba27, 0x773563bc6a75c],
                [0x4ac00d1df94ab, 0x3ba2101bd271b, 0x7578988b9c4af, 0x0f2bf89f49f7e, 0x73fced18ee9a0],
                [0x1e90863139cb3, 0x4f8b407d9a0d6, 0x58e24ca924f69, 0x7a246bbe76456, 0x1f426b701b864],
            ],
        ),
        comb_entry(
            [
                [0x56b23c3d330b2, 0x37608e360d1a6, 0x10ae0f3c8722e, 0x086d9b618b637, 0x07d79c7e8beab],
                [0x793bb07af9753, 0x1e7b6ecd4fafd, 0x02c7b1560fb43, 0x2296734cc5fb7, 0x47b7ffd25dd40],
                [0x3fb9cbc08dd12, 0x75c3dd85370ff, 0x47f06fe2819ac, 0x5db06ab9215ed, 0x1c3520a35ea64],
            ],
            [
                [0x1264c41911c01, 0x702f44584bdf9, 0x43c511fc68ede, 0x0482c3aed35f9, 0x4e1af5271d31b],
                [0x635c891a12552, 0x26aebd38ede2f, 0x66dc8faddae05, 0x21c7d41a03786, 0x0b76bb1b3fa7e],
                [0x0c1f97f92939b, 0x17a88956dc117, 0x6ee005ef99dc7, 0x4aa9172b231cc, 0x7b6dd61eb772a],
            ],
        ),
        comb_entry(
            [
                [0x253a6bccba34a, 0x427070433701a, 0x20b8e58f9870e, 0x337c861db00cc, 0x1c3d05775d0ee],
                [0x06f40216bc059, 0x3a2579b0fd9b5, 0x71c26407eec8c, 0x72ada4ab54f0b, 0x38750c3b66d12],
                [0x6f1409422e51a, 0x7856bbece2d25, 0x13380a72f031c, 0x43e1080a7f3ba, 0x0621e2c7d3304],
            ],
            [
                [0x5c1e850f33d92, 0x1ec119ab9f6f5, 0x7f16f6de663e9, 0x7a7d6cb16dec6, 0x703e9bceaf1d2],
                [0x0abf9ab01d2c7, 0x3880287630ae6, 0x32eca045beddb, 0x57f43365f32d0, 0x53fa9b659bff6],
                [0x4c8e994885455, 0x4ccb5da9cad82, 0x3596bc610e975, 0x7a80c0ddb9f5e, 0x398d93e5c4c61],
            ],
        ),
        comb_entry(
            [
                [0x060cc8259838d, 0x038d3f35b95f3, 0x56078c243a923, 0x2de3293241bb2, 0x0007d6097bd3a],
                [0x61796b0dbf0f3, 0x73c2f9c32d6f5, 0x6aa8ed1537ebe, 0x74e92c91838f4, 0x5d8e589ca1002],
                [0x71d950842a94b, 0x46b11e5c7d817, 0x5478bbecb4f0d, 0x7c3054b0a1c5d, 0x1583d7783c1cb],
            ],
            [
                [0x3d16733e248f3, 0x0e2b7e14be389, 0x42c0ddaf6784a, 0x589ea1fc67850, 0x53b09b5ddf191],
                [0x77c60d2e7e3f2, 0x4061051763870, 0x67bc4e0ecd2aa, 0x2bb941f1373b9, 0x699c9c9002c30],
                [0x6a7235946f1cc, 0x6b99cbb2fbe60, 0x6d3a5d6485c62, 0x4839466e923c0, 0x51caf30c6fcdd],
            ],
        ),
        comb_entry(
            [
                [0x6a2ef5da27ae1, 0x28aace02e9d9d, 0x02459e965f0e8, 0x7b864d3150933, 0x252a5f2e81ed8],
                [0x34704cc9d28c7, 0x3dee598b1f200, 0x16e1c98746d9e, 0x4050b7095afdf, 0x4958064e83c55],
                [0x094265066e80d, 0x0a60f918d61a5, 0x0444bf7f30fde, 0x1c40da9ed3c06, 0x079c170bd843b],
            ],
            [
                [0x3a7427674e00a, 0x6142f4f7e74c1, 0x4cc93318c3a15, 0x6d51bac2b1ee7, 0x5504aa292383f],
                [0x2f99a18ac54c7, 0x398a39661ee6f, 0x384331e40cde3, 0x4cd15c4de19a6, 0x12ae29c189f8e],
                [0x6c0cb1f0d01cf, 0x187469ef5d533, 0x27138883747bf, 0x2f52ae53a90e8, 0x5fd14fe958eba],
            ],
        ),
        comb_entry(
            [
                [0x6ece464fa6fff, 0x3cc40bca460a0, 0x6e3a90afb8d0c, 0x5801abca11228, 0x6dec05e34ac9f],
                [0x6cd50c0d5d056, 0x5b7606ae779ba, 0x70fbd226bdda1, 0x5661e53391ff9, 0x6768c0d7317b8],
                [0x625e5f155c1b3, 0x4f32f6f723296, 0x5ac980105efce, 0x17a61165eee36, 0x51445e14ddcd5],
            ],
            [
                [0x42ddf2845ab2c, 0x6214ffd3276bb, 0x00b8d181a5246, 0x268a6d579eb20, 0x093ff26e58647],
                [0x2fe5ebf93cb8e, 0x226da8acbe788, 0x10883a2fb7ea1, 0x094707842cf44, 0x7dd73f960725d],
                [0x524fe68059829, 0x65b75e47cb621, 0x15eb0a5d5cc19, 0x05209b3929d5a, 0x2f59bcbc86b47],
            ],
        ),
        comb_entry(
            [
                [0x02b4b3b144951, 0x5688977966aea, 0x18e176e399ffd, 0x2e45c5eb4938b, 0x13186f31e3929],
                [0x147ab2bbea455, 0x1f240f2253126, 0x0c3de9e314e89, 0x21ea5a4fca45f, 0x12e990086e4fd],
                [0x496b37fdfbb2e, 0x3c2439d5f3e21, 0x16e60fe7e6a4d, 0x4d7ef889b621d, 0x77b2e3f05d3e9],
            ],
            [
                [0x47d429917135f, 0x3eacfa07af070, 0x1deab46b46e44, 0x7a53f3ba46cdf, 0x5458b42e2e51a],
                [0x1d560b691c301, 0x7f5bafce3ce08, 0x4cd561614806c, 0x4588b6170b188, 0x2aa55e3d01082],
                [0x192e60c07444f, 0x5ae8843a21daa, 0x6d721910b1538, 0x3321a95a6417e, 0x13e9004a8a768],
            ],
        ),
    ],
    // 16^23·B | 16^55·B
    [
        comb_entry(
            [
                [0x575879cf12657, 0x29ca741c53fa1, 0x6ed2f9fa0bfbe, 0x451661a53f82d, 0x0b251172a50c3],
                [0x2f48fcc5cd29b, 0x7d479c6ce32a6, 0x448a504aea146, 0x279196d655028, 0x478d99d935000],
                [0x2d94890bb02c0, 0x621d84a22a3ab, 0x3c85c09438822, 0x402d1351144a7, 0x4dc923343b524],
            ],
            [
                [0x5b5556c032bff, 0x6e5252f475976, 0x7b606ef7dc646, 0x1fae0ffb99356, 0x71ade8bb68be0],
                [0x284c5806b467c, 0x77cebac0f63cc, 0x5e3498b17da65, 0x5b845b3ecac59, 0x3d88d66a81cd8],
                [0x67a93204ed789, 0x173f415c5516e, 0x739221dd8bf2b, 0x7d9bb8ff5e636, 0x343062158ff05],
            ],
        ),
        comb_entry(
            [
                [0x28c400f8086b6, 0x6f2f3e1b91c70, 0x7d0b2d0fddf9b, 0x3c23f7b6f1826, 0x5265797cb6abd],
                [0x3e3ebf36c4975, 0x4a6f0c424a75a, 0x096945b5d7496, 0x423f439ca1ed0, 0x6bbc7cb4c411c],
                [0x79cd1d4a50d56, 0x6f8dfd56fc78d, 0x6025cbad89101, 0x67db7fcdfa41a, 0x00375883b332a],
            ],
            [
                [0x5a1a7e1f5bf49, 0x5ba8e6c125c0b, 0x730cbd89915f5, 0x7e6bbee583bb9, 0x0a5d94969cdd5],
                [0x219072a7b31b4, 0x6b54af002df9c, 0x51e4c9135eb71, 0x5f587613b5343, 0x6d6d9d5d1fda4],
                [0x1a58ae9b08183, 0x6382b87116456, 0x428145ff65741, 0x1af54c091bb42, 0x33384cbabb7f3],
            ],
        ),
        comb_entry(
            [
                [0x1b2cd28cb0940, 0x40de384992000, 0x35728c58fed46, 0x3305ad6c348ee, 0x67238dbd8c450],
                [0x3ec856c75c99c, 0x0001c679e9931, 0x241d8d3910613, 0x4eb8533b5cddd, 0x669e2cb571f37],
                [0x16b73a49bd308, 0x564724e53d962, 0x55766c4096ab5, 0x5dcda3c9f7d1f, 0x72a1056140678],
            ],
            [
                [0x7a2680ca2c7b5, 0x08df6c9fb478d, 0x0c75b786d4208, 0x644f5a99a4e2a, 0x5278b38f6b879],
                [0x4627a26218b8d, 0x3f8f5018c2677, 0x4fa7b9baa02c8, 0x02cca2c58958b, 0x076247be0e2f3],
                [0x105f61416375a, 0x6d0b57d748a5c, 0x699f0dbb25ebc, 0x58093735a8311, 0x5cf0e856f3d4f],
            ],
        ),
        comb_entry(
            [
                [0x6812b1cc9249d, 0x5c42423eb1456, 0x7c43b398a19bb, 0x700165ae2dc2e, 0x03a6b259e263a],
                [0x52909e2e505b6, 0x57805224601b1, 0x6c48c9e6329e2, 0x5a3bbf7aab4d4, 0x7c77897b81439],
                [0x1b5e2de331cb5, 0x1c2bf94841e38, 0x764cac56a7d76, 0x373cfd21c78bd, 0x2a381bf01c614],
            ],
            [
                [0x168731ae8cab4, 0x3d969f258bed9, 0x336f0f97881d0, 0x6fb96d29df2c6, 0x2dddfea269970],
                [0x6ce313db342a8, 0x37085b6fdd7d5, 0x5fc4fbf2e8d8d, 0x2e37446331040, 0x1b9438aa4e76d],
                [0x0777e166f031a, 0x621f6f465114a, 0x43ef5d819ece7, 0x4828c92e4d300, 0x6df9b575cc740],
            ],
        ),
        comb_entry(
            [
                [0x39879cfc811c1, 0x026eadcacf593, 0x1c3b7f22df4a6, 0x05b286d27303e, 0x5dbca62f88440],
                [0x0be32b534166f, 0x48339ee1a9ef8, 0x55e9d649f9b29, 0x15549a6fbebd4, 0x5701461dabdec],
                [0x747402c915c25, 0x50161a681458c, 0x6d0fd7c6f7346, 0x1212f2b00de83, 0x2555b4e05539a],
            ],
            [
                [0x1192927f6bdcf, 0x74807ac394858, 0x6787d863e4645, 0x7c6ee0e2d3345, 0x1596047804ec0],
                [0x7c35b48cade41, 0x3f646504e1d9b, 0x2806da9aa211c, 0x794ba05251220, 0x471e5796003b5],
                [0x6bbb3aced37ac, 0x6bd24119d5b52, 0x2baeb89e8908e, 0x71792662e181c, 0x50c356afdc5da],
            ],
        ),
        comb_entry(
            [
                [0x09f5266ddd216, 0x4f91c6e090df8, 0x37d8bf7739582, 0x0c97632c9ced1, 0x7a869ae7e52ed],
                [0x09b1d87e463d4, 0x359bf6c73af08, 0x4966e72b536a5, 0x055f6143b9baa, 0x69c806e9c3123],
                [0x0f57414bb3f22, 0x495db99910f69, 0x7b602f9a31f3b, 0x625f697c9b0bc, 0x25d70b885f77b],
            ],
            [
                [0x4bf4341c30318, 0x2306303b9c13b, 0x078a687bae818, 0x2d860bce0676e, 0x1dbf7b89073f3],
                [0x59cdf1b31b964, 0x0b194a35e79fd, 0x2307e13d21aa6, 0x6000a44b932f5, 0x784a53dd932ac],
                [0x1f9df14fc4920, 0x1988933fca5b3, 0x73c000ddb32d8, 0x0755209965df2, 0x3f93d82354f00],
            ],
        ),
        comb_entry(
            [
                [0x1c3d9762bf4de, 0x3e4e8bb05682a, 0x48f775420fd0d, 0x59214bbad1706, 0x138e3a6269a5d],
                [0x59d29bb1ae4d4, 0x0e73f2a9d9308, 0x26d2cf95ae713, 0x3c54193a1fb61, 0x21ea8e2798b68],
                [0x6f4b46a5a7b9c, 0x36bf83a0c50f7, 0x4c8592348a674, 0x01ec1204c0c6e, 0x5c5abeb1e5a2e],
            ],
            [
                [0x3e7689e04ce85, 0x3c088ca683030, 0x223b6b19e3edc, 0x4cd56c902c7b3, 0x5da350d3532b0],
                [0x412d179e14978, 0x6777d7febdd55, 0x18f389ffe48ff, 0x2ffa57b31f203, 0x0fd381a811a5f],
                [0x6aceca436df54, 0x515cd3add1e4a, 0x5740db0422d85, 0x7a8106cc365b5, 0x655957b9fee2a],
            ],
        ),
        comb_entry(
            [
                [0x22af4b73c2ddb, 0x3eb40a0c1a28e, 0x606c0baf11c31, 0x647804a1f5612, 0x0e434b3b1f499],
                [0x5e6de1306a233, 0x4422df1d8e059, 0x458ed6ded694a, 0x321f0e340fa60, 0x241d350660d32],
                [0x4404d0ebc52c7, 0x77634f23ead7c, 0x176d0aeb9188c, 0x34a15760b8769, 0x1d8dfd966645d],
            ],
            [
                [0x0b07fa902030f, 0x55e8c7a2875d5, 0x1e1e983e231d9, 0x2540ad841b31e, 0x08eab1148267a],
                [0x1409bd002d0ac, 0x0b6b99b34d7b8, 0x37a17b1999809, 0x786c118bee27d, 0x02fe934b6ad7d],
                [0x4f100cfb7ea74, 0x6743968559deb, 0x3ca17888a25d8, 0x52aea67062a67, 0x30408c048a146],
            ],
        ),
    ],
    // 16^24·B | 16^56·B
    [
        comb_entry(
            [
                [0x7a9c59c2ec4de, 0x7e9f09e79652d, 0x6a3e422f22d86, 0x2ae8e3b836c8b, 0x63b795fc7ad32],
                [0x0639c12ddb0a4, 0x6180490cd7ab3, 0x3f3918297467c, 0x74568be1781ac, 0x07a195152e095],
                [0x68f02389e5fc8, 0x059f1bc877506, 0x504990e410cec, 0x09bd7d0feaee2, 0x3e8fe83d032f0],
            ],
            [
                [0x58845832fcedb, 0x135cd7f0c6e73, 0x53ffbdfe8e35b, 0x22f195e06e55b, 0x73937e8814bce],
                [0x600c9193b877f, 0x21c1b8a0d7765, 0x379927fb38ea2, 0x70d7679dbe01b, 0x5f46040898de9],
                [0x37116297bf48d, 0x45a9e0d069720, 0x25af71aa744ec, 0x41af0cb8aaba3, 0x2cf8a4e891d5e],
            ],
        ),
        comb_entry(
            [
                [0x315b90570a294, 0x60ce108a925f1, 0x6eff61253c909, 0x003ef0e2d70b0, 0x75ba3b797fac4],
                [0x04c8de8efd13c, 0x1c67c06e6210e, 0x183378f7f146a, 0x64352ceaed289, 0x22d60899a6258],
                [0x1dbc070cdd196, 0x16d8fb1534c47, 0x500498183fa2a, 0x72f59c423de75, 0x0904d07b87779],
            ],
            [
                [0x3fd8707110f67, 0x26f8716a92db2, 0x1cdaa1b753027, 0x504be58b52661, 0x2049bd6e58252],
                [0x5487e17d06ba2, 0x3872a032d6596, 0x65e28c09348e0, 0x27b6bb2ce40c2, 0x7a6f7f2891d6a],
                [0x1fd8d6a9aef49, 0x7cb67b7216fa1, 0x67aff53c3b982, 0x20ea610da9628, 0x6011aadfc5459],
            ],
        ),
        comb_entry(
            [
                [0x61fd4ddba919c, 0x7d8e991b55699, 0x61b31473cc76c, 0x7039631e631d6, 0x43e2143fbc1dd],
                [0x22d6648f940b9, 0x197a5a1873e86, 0x207e4c41a54bc, 0x5360b3b4bd6d0, 0x6240aacebaf72],
                [0x4749c5ba295a0, 0x37946fa4b5f06, 0x724c5ab5a51f1, 0x65633789dd3f3, 0x56bdaf238db40],
            ],
            [
                [0x7926dcf95f83c, 0x42e25120e2bec, 0x63de96df1fa15, 0x4f06b50f3f9cc, 0x6fc5cc1b0b62f],
                [0x6d0c802cbf890, 0x141bfed554c7b, 0x6dbb667ef4263, 0x58f3126857edc, 0x69ce18b779340],
                [0x75528b29879cb, 0x79a8fd2125a3d, 0x27c8d4b746ab8, 0x0f8893f02210c, 0x15596b3ae5710],
            ],
        ),
        comb_entry(
            [
                [0x2b9e3f53533eb, 0x2add727a806c5, 0x56955c8ce15a3, 0x18c4f070a290e, 0x1d24a86d83741],
                [0x0d36cc19d3bb2, 0x6ec4470d72262, 0x6853d7018a9ae, 0x3aa3e4dc2c8eb, 0x03aa31507e1e5],
                [0x47648ffd4ce1f, 0x60a9591839e9d, 0x424d5f38117ab, 0x42cc46912c10e, 0x43b261dc9aeb4],
            ],
            [
                [0x739d23f9179a2, 0x632fadbb9e8c4, 0x7c8522bfe0c48, 0x6ed0983ef5aa9, 0x0d2237687b5f4],
                [0x731167e5124ca, 0x17b38e8bbe13f, 0x3d55b942f9056, 0x09c1495be913f, 0x3aa4e241afb6d],
                [0x138bf2a3305f5, 0x1f45d24d86598, 0x5274bad2160fe, 0x1b6041d58d12a, 0x32fcaa6e4687a],
            ],
        ),
        comb_entry(
            [
                [0x31e1988bb79bb, 0x7b82f46b3bcab, 0x0f7a8ce827b41, 0x5e15816177130, 0x326055cf5b276],
                [0x13d8b6c951364, 0x4c0017e8f632a, 0x53e559e53f9c4, 0x4b20146886eea, 0x02b4d5e242940],
                [0x155cb28d18df2, 0x0c30d9ca11694, 0x2090e27ab3119, 0x208624e7a49b6, 0x27a6c809ae5d3],
            ],
            [
                [0x56e8dc57d9af5, 0x5b3be17be4f78, 0x3bf928cf82f4b, 0x52e55600a6f11, 0x4627e9cefebd6],
                [0x7a4732787ccdf, 0x11e427c7f0640, 0x03659385f8c64, 0x5f4ead9766bfb, 0x746f6336c2600],
                [0x2f345ab6c971c, 0x653286e63e7e9, 0x51061b78a23ad, 0x14999acb54501, 0x7b4917007ed66],
            ],
        ),
        comb_entry(
            [
                [0x6ebcd1f0db188, 0x74ceb4b7d1174, 0x7d56168df4f5c, 0x0bf79176fd18a, 0x2cb67174ff60a],
                [0x4270ac43d6954, 0x2ed4cd95659a5, 0x75c0db37528f9, 0x2ccbcfd2c9234, 0x221503603d8c2],
                [0x6cdf9390be1d0, 0x08e519c7e2b3d, 0x253c3d2a50881, 0x21b41448e333d, 0x7b1df4b73890f],
            ],
            [
                [0x5fb5cab84b064, 0x2513e778285b0, 0x457383125e043, 0x6bda3b56e223d, 0x122ba376f844f],
                [0x41b28dd53a2dd, 0x37be85f87ea86, 0x74be3d2a85e41, 0x1be87fac96ca6, 0x1d03620fe08cd],
                [0x232cda2b4e554, 0x0422ba30ff840, 0x751e7667b43f5, 0x6261755da5f3e, 0x02c70bf52b68e],
            ],
        ),
        comb_entry(
            [
                [0x2f2e0b3b2a224, 0x0c56aa22c1c92, 0x5fdec39f1b278, 0x4c90af5c7f106, 0x61fcef2658fc5],
                [0x6221807f8f58c, 0x3fa92813a8be5, 0x6da98c38d5572, 0x01ed95554468f, 0x68698245d352e],
                [0x15d852a18187a, 0x270dbb59afb76, 0x7db120bcf92ab, 0x0e7a25d714087, 0x46cf4c473daf0],
            ],
            [
                [0x7ec4b5d0b2fbb, 0x200e910595450, 0x742057105715e, 0x2f07022530f60, 0x26334f0a409ef],
                [0x532bf458d72e1, 0x40f96e796b59c, 0x22ef79d6f9da3, 0x501ab67beca77, 0x6b0697e3feb43],
                [0x0f04adf62a3c0, 0x5e0edb48bb6d9, 0x7c34aa4fbc003, 0x7d74e4e5cac24, 0x1cc37f43441b2],
            ],
        ),
        comb_entry(
            [
                [0x525ed9ec4e5f9, 0x022d20660684c, 0x7972b70397b68, 0x7a03958d3f965, 0x29387bcd14eb5],
                [0x46ea7f1498140, 0x70725690a8427, 0x0a73ae9f079fb, 0x2dd924461c62b, 0x1065aae50d8cc],
                [0x44525df200d57, 0x2d7f94ce94385, 0x60d00c170ecb7, 0x38b0503f3d8f0, 0x69a198e64f1ce],
            ],
            [
                [0x7565a5cc7324f, 0x01ca0d5244a11, 0x116b067418713, 0x0a57d8c55edae, 0x6c6809c103803],
                [0x656f1c9ceaeb9, 0x7031cacad5aec, 0x1308cd0716c57, 0x41c1373941942, 0x3a346f772f196],
                [0x55112e2da6ac8, 0x6363d0a3dba5a, 0x319c98ba6f40c, 0x2e84b03a36ec7, 0x05911b9f6ef7c],
            ],
        ),
    ],
    // 16^25·B | 16^57·B
    [
        comb_entry(
            [
                [0x4d613efa9d697, 0x48380cf2b2f5f, 0x7eb6a5833116a, 0x1b2d2b7f08260, 0x3a73b70472e40],
                [0x6e56b9e2d4734, 0x57038c2ceaf64, 0x27379ff131c4c, 0x1d6f7ae4a92f6, 0x39c80b16e7174],
                [0x16e0d1b826c68, 0x4492c1c7b61e3, 0x6dd0db3dc7fc3, 0x14130898b3811, 0x0cf0ea5877da7],
            ],
            [
                [0x4d756b637ff2d, 0x1f930fe189d3b, 0x7ef1edfb130d2, 0x543e76ac942f9, 0x3305354793e1e],
                [0x18980c5fe9f94, 0x52e2dfab90038, 0x656821b35959d, 0x4c140b022e1e8, 0x6e2b7f3266cc7],
                [0x02468f7c3568f, 0x04332e9967990, 0x6e04d8277a6ea, 0x53155db914e5a, 0x44e2017a6fbeb],
            ],
        ),
        comb_entry(
            [
                [0x480a4ddd4ccbd, 0x3b2be5bb3a32d, 0x35b1c6c8b9bd5, 0x217e3af19e3a0, 0x7bb51279cb3c0],
                [0x2ced43ba6945a, 0x43d10380bbc66, 0x19fb4ef782c4d, 0x6ae8d6a0784af, 0x5da8acdab8c63],
                [0x6664a3a70159f, 0x1e15209c29896, 0x025b04dd8653c, 0x676d2b0a61cd2, 0x6cd0ff50979fe],
            ],
            [
                [0x2a74354dab774, 0x789d5e0635898, 0x20e3c5e397530, 0x2755bb611e921, 0x749a098f68dce],
                [0x02cf3b6ca6ecd, 0x7c31e941850ff, 0x013955d603e24, 0x60e82c4980393, 0x6cab6ac256d19],
                [0x7e0a02cc1de60, 0x7ea38aaeb7b9b, 0x4eafbac0c9997, 0x3031606197883, 0x6a882014cd7b8],
            ],
        ),
        comb_entry(
            [
                [0x067e78f4428ac, 0x614c226bc781c, 0x018a4d4520d6a, 0x24e790e8a799c, 0x6390a4c8df048],
                [0x4fabdb04ba18e, 0x7877bb79eeffd, 0x5e84c7343f1ef, 0x530d20ea43702, 0x641a4391f2223],
                [0x6b95aa606a8db, 0x3d60d04be38b8, 0x3f27bfe452dfe, 0x67e15398fb5a2, 0x30ddf38562705],
            ],
            [
                [0x292fea4747fb5, 0x123f4b57134a5, 0x11e933b704a91, 0x6276c16d4a5dc, 0x4d77edce9512c],
                [0x1d17caf4feb6e, 0x0566754947a22, 0x2d1b0c0142ee9, 0x6ba8ba8a61e77, 0x54bedb8b1bc27],
                [0x0e14577e2189c, 0x55ff33888aef9, 0x4cd4d0e8f91bd, 0x35498a26fe436, 0x3a96559e7c421],
            ],
        ),
        comb_entry(
            [
                [0x5cbdad1bff7f9, 0x0440c8ae2e9c7, 0x462755b24463a, 0x3345d66675e07, 0x1b4822e9d4467],
                [0x6f2bd68bcd52c, 0x60d2905de4677, 0x72c6bbb19276e, 0x3f2dadb770620, 0x5c294d270212a],
                [0x60a7f25563781, 0x14901ef2b1566, 0x452d38c94488a, 0x71563ae8293b0, 0x222d9625d976f],
            ],
            [
                [0x50d37f42ad2ee, 0x093143f7ea24a, 0x62532ca2de380, 0x6862ea983c119, 0x02c84e4e3e498],
                [0x3896880baaa52, 0x09e50b281c892, 0x15122d93262bf, 0x73ff7a553cdd2, 0x5278c510a57aa],
                [0x5d074294c0b94, 0x71be31ff6d4a9, 0x6ba0d9bd5751a, 0x0b2f837f662c6, 0x588657668190d],
            ],
        ),
        comb_entry(
            [
                [0x17f85b372ace1, 0x528c717e3038e, 0x7022d62064c39, 0x7fa11ce5682b5, 0x0b34271c87f8f],
                [0x4be7e0a344f85, 0x190fe458701f2, 0x385bc3facbeaa, 0x6f54e70f3af27, 0x43e64e5418a08],
                [0x5e2521a35ce63, 0x1bf224051d02a, 0x5f773b2f84035, 0x3725ffc05fc52, 0x57342dc96d6bc],
            ],
            [
                [0x712311aef7117, 0x02453d258fa8e, 0x4566e5d40d0c4, 0x4e4bd4af0c24e, 0x2449959b8b5d2],
                [0x034f03de25cc3, 0x5dad02a92d7eb, 0x207a24ae21f22, 0x7c9a882910d4a, 0x6760ed19f7723],
                [0x3a3b7ac35e160, 0x7f750840accd3, 0x2013c1cbb33dc, 0x2738d760f8be0, 0x0d96bc031856f],
            ],
        ),
        comb_entry(
            [
                [0x6f065c8ce5998, 0x216b97d545dfd, 0x2df1162fc0a54, 0x42ac632508310, 0x35134fb231c24],
                [0x3bcb71e707bf6, 0x18e5234ec5e78, 0x35a68ccd4766e, 0x03f802817376d, 0x522f521f1ec88],
                [0x41f46f9a3902b, 0x6f32caf7984e5, 0x628703b246e8e, 0x0bdd730a59827, 0x7afcaad70b990],
            ],
            [
                [0x0be7775c52d82, 0x6aa9a15572663, 0x1dcf64532dd92, 0x44555e79e93e6, 0x3bf4d18481232],
                [0x534b0cc7505e1, 0x682d86a51163a, 0x58b0a74cb3400, 0x5fc659b52c003, 0x5bfe69b9237a0],
                [0x6ab7e78a151ab, 0x1332126ec6307, 0x31f8cd6efa643, 0x7c47fb8beb725, 0x4c5cddb325f39],
            ],
        ),
        comb_entry(
            [
                [0x5ed54a4b8be41, 0x423761c5bb84b, 0x7a0aaca40b44f, 0x3e5a0fa1919e6, 0x1085faa5c3aae],
                [0x141ecef842b6b, 0x0f2f57cd8b510, 0x5e13ff9579ec5, 0x05bc63a47cb81, 0x5b50a1f7afcd0],
                [0x40f66f1361315, 0x04e02007d3370, 0x2894200611889, 0x19032f6a2fd72, 0x0a2862393fda7],
            ],
            [
                [0x6b74d6190a6eb, 0x485b71e9c981e, 0x4c55d8083aa06, 0x610d45eb7becb, 0x33b1d60262ac7],
                [0x50967e7a9f902, 0x789eb68cfcaee, 0x5dee918b0dff7, 0x195d930b31d18, 0x3a375e78dc2d5],
                [0x1e72f2d4dddea, 0x30c58c0f91028, 0x4f2bf439babfa, 0x1a311e1422c2b, 0x46b9476f4ff97],
            ],
        ),
        comb_entry(
            [
                [0x313c8347cbc9d, 0x29338247068d5, 0x7592b24e127a3, 0x773a67518a043, 0x1f354134b1a29],
                [0x6737b6ecb9d17, 0x11acf9d5c32c1, 0x5786e27ebc925, 0x4f59bf3d4da6a, 0x5cb7173cb46c5],
                [0x1e68b82b7abf0, 0x4f374d6f72951, 0x6361dbfd07364, 0x4e30b73610870, 0x7cacdb0f7f1b0],
            ],
            [
                [0x7fea44f901e5c, 0x6e43096f04183, 0x4536e20ac2dbe, 0x0a172c3ffc880, 0x37130f364785a],
                [0x5505c0d58359f, 0x0ff85188d6242, 0x7a99938a8804f, 0x70f925050d7c4, 0x4400b638a1130],
                [0x1b76496ed19c3, 0x61da64e460740, 0x72856c4c7802a, 0x763a905442bc1, 0x06aab9875accb],
            ],
        ),
    ],
    // 16^26·B | 16^58·B
    [
        comb_entry(
            [
                [0x2b2e0d91a78bc, 0x3990a12ccf20c, 0x141c2e11f2622, 0x0dfcefaa53320, 0x7369e6a92493a],
                [0x14434dcc5caed, 0x2c7909f667c20, 0x61a839d1fb576, 0x4f23800cabb76, 0x25b2697bd267f],
                [0x73ffb13986864, 0x3282bb8f713ac, 0x49ced78f297ef, 0x6697027661def, 0x1420683db54e4],
            ],
            [
                [0x39983f5df0ebb, 0x1ea2589959826, 0x6ce638703cdd6, 0x6311678898505, 0x6b3cecf9aa270],
                [0x1acf3512eeaef, 0x2639839692a69, 0x669a234830507, 0x68b920c0603d4, 0x555ef9d1c64b2],
                [0x770ba3b73bd08, 0x11475f7e186d4, 0x0251bc9892bbc, 0x24eab9bffcc5a, 0x675f4de133817],
            ],
        ),
        comb_entry(
            [
                [0x0bd1e249dd197, 0x00bcb1820568f, 0x2eab1718830d4, 0x396fd816997e6, 0x60b63bebf508a],
                [0x6bb6fc1cc5ad0, 0x532c8d591669d, 0x1af794da86c33, 0x0e0e9d86d24d3, 0x31e83b4161d08],
                [0x0c7129e062b4f, 0x1e526415b12fd, 0x461a0fd27923d, 0x18badf670a5b7, 0x55cf1eb62d550],
            ],
            [
                [0x452036b1782fc, 0x02d95b07681c5, 0x5901cf99205b2, 0x290686e5eecb4, 0x13d99df70164c],
                [0x7f6d93bdab31d, 0x1f3aca5bfd425, 0x2fa521c1c9760, 0x62180ce27f9cd, 0x60f450b882cd3],
                [0x35ec321e5c0ca, 0x13ae337f44029, 0x4008e813f2da7, 0x640272f8e0c3a, 0x1c06de9e55eda],
            ],
        ),
        comb_entry(
            [
                [0x1101065c23d58, 0x5aa1290338b0f, 0x3157e9e2e7421, 0x0ea712017d489, 0x669a656457089],
                [0x6b5e37df58c52, 0x3bcf33986c60e, 0x44fb8835ceae7, 0x099dec18e71a4, 0x1a56fbaa62ba0],
                [0x66b505c9dc9ec, 0x774ef86e35287, 0x4d1d944c0955e, 0x52e4c39d72b20, 0x13c4836799c58],
            ],
            [
                [0x77ad6a33ec4e2, 0x717c5dc11d321, 0x4a114559823e4, 0x306ce50a1e2b1, 0x4cf38a1fec2db],
                [0x52b40ff6d69aa, 0x31b8809377ffa, 0x536625cd14c2c, 0x516af252e17d1, 0x78096f8e7d32b],
                [0x2aa650dfa5ce7, 0x54916a8f19415, 0x00dc96fe71278, 0x55f2784e63eb8, 0x373cad3a26091],
            ],
        ),
        comb_entry(
            [
                [0x25d465ab3e1b9, 0x0f8fe27ec2847, 0x2d6e6dbf04f06, 0x3038cfc1b3276, 0x66f80c93a637b],
                [0x4fb6a5d8bd080, 0x58ae34908589b, 0x3954d977baf13, 0x413ea597441dc, 0x50bdc87dc8e5b],
                [0x537836edfe111, 0x2be02357b2c0d, 0x6dcee58c8d4f8, 0x2d732581d6192, 0x1dd56444725fd],
            ],
            [
                [0x4634d82c9f57c, 0x4249268a6d652, 0x6336d687f2ff7, 0x4fe4f4e26d9a0, 0x0040f3d945441],
                [0x6a8fb89ddbbad, 0x78c35d5d97e37, 0x66e3674ef2cb2, 0x34347ac53dd8f, 0x21547eda5112a],
                [0x5e939fd5986d3, 0x12a2147019bdf, 0x4c466e7d09cb2, 0x6fa5b95d203dd, 0x63550a334a254],
            ],
        ),
        comb_entry(
            [
                [0x47ff83362127d, 0x08e39af82b1f4, 0x488322ef27dab, 0x1973738a2a1a4, 0x0e645912219f7],
                [0x7e60008bac89a, 0x23d5c387c1852, 0x79e5df1f533a8, 0x2e6f9f1c5f0cf, 0x3a3a450f63a30],
                [0x72f31d8394627, 0x07bd294a200f1, 0x665be00e274c6, 0x43de8f1b6368b, 0x318c8d9393a9a],
            ],
            [
                [0x7d6edb569cf37, 0x60194a5dc2ca0, 0x5af59745e10a6, 0x7a8f53e004875, 0x3eea62c7daf78],
                [0x2584572547b49, 0x75c58811c1377, 0x4d3c637cc171b, 0x33d30747d34e3, 0x39a92bafaa7d7],
                [0x4c713e693274e, 0x6ed1b7a6eb3a4, 0x62ace697d8e15, 0x266b8292ab075, 0x68436a0665c9c],
            ],
        ),
        comb_entry(
            [
                [0x45d032afffe19, 0x12fe49b6cde4e, 0x21663bc327cf1, 0x18a5e4c69f1dd, 0x224c7c679a1d5],
                [0x69e29ab1dd398, 0x30685b3c76bac, 0x565cf37f24859, 0x57b2ac28efef9, 0x509a41c325950],
                [0x06edca6f925e9, 0x68c8363e677b8, 0x60cfa25e4fbcf, 0x1c4c17609404e, 0x05bff02328a11],
            ],
            [
                [0x235e8202f3f27, 0x44c9f2eb61780, 0x630905b1d7003, 0x4fcc8d274ead1, 0x17b6e7f68ab78],
                [0x6d317e820107c, 0x090815d2ca3ca, 0x03ff1eb1499a1, 0x23960f050e319, 0x5373669c91611],
                [0x014ab9a0e5257, 0x09939567f8ba5, 0x4b47b2a423c82, 0x688d7e57ac42d, 0x1cb4b5a678f87],
            ],
        ),
        comb_entry(
            [
                [0x2137023cae00b, 0x15a3599eb26c6, 0x0687221512b3c, 0x253cb3a0824e9, 0x780b8cc3fa2a4],
                [0x1a0dd0dc512e4, 0x10894bf5fcd10, 0x52949013f9c37, 0x1f50fba4735c7, 0x576277cdee01a],
                [0x38abc234f305f, 0x7a280bbc103de, 0x398a836695dfe, 0x3d0af41528a1a, 0x5ff418726271b],
            ],
            [
                [0x4c06b394afc6c, 0x4931b4bf636cc, 0x72b60d0322378, 0x25127c6818b25, 0x330bca78de743],
                [0x4aa62a2a007e7, 0x61e0e38f62d6e, 0x02f888fcc4782, 0x7562b83f21c00, 0x2dc0fd2d82ef6],
                [0x6ff841119744e, 0x2c560e8e49305, 0x7254fefe5a57a, 0x67ae2c560a7df, 0x3c31be1b369f1],
            ],
        ),
        comb_entry(
            [
                [0x6080c1789db9d, 0x4be7cef1ea731, 0x2f40d769d8080, 0x35f7d4c44a603, 0x106a03dc25a96],
                [0x347e813b69540, 0x76864c21c3cbb, 0x1e049dbcd74a8, 0x5b4d60f93749c, 0x29d4db8ca0a0c],
                [0x50aaf333353d0, 0x4b59a613cbb35, 0x223dfc0e19a76, 0x77d1e2bb2c564, 0x4ab38a51052cb],
            ],
            [
                [0x4864d08948aee, 0x5d237438df61e, 0x2b285601f7067, 0x25dbcbae6d753, 0x330b61134262d],
                [0x0bc93f9cb4272, 0x3f8f9db73182d, 0x2b235eabae1c4, 0x2ddbf8729551a, 0x41cec1097e7d5],
                [0x619d7a26d808a, 0x3c3b3c2adbef2, 0x6877c9eec7f52, 0x3beb9ebe1b66d, 0x26b44cd91f287],
            ],
        ),
    ],
    // 16^27·B | 16^59·B
    [
        comb_entry(
            [
                [0x2cbee4324c0e9, 0x107f2ab76fbfb, 0x0c5827c15110a, 0x67fef7bd55475, 0x68aee70642287],
                [0x7e2e8809de054, 0x55390575a3ed1, 0x2b6fd178ef025, 0x2cf03b1a9ea05, 0x7b9b1fb5dea19],
                [0x4c8f17471cc0c, 0x6eaf210577e03, 0x791ad7e5490b8, 0x2fd93bbb049e9, 0x2d13d55a28bd8],
            ],
            [
                [0x29035393aa6d8, 0x634257639a601, 0x24f0888ad4044, 0x5d6bd8ffb3bf8, 0x4309c1f8cab82],
                [0x4842db0285f37, 0x208fdf91bf5e8, 0x0825e6a1d4c62, 0x2bccaba7048fc, 0x0e378d6069615],
                [0x2917183075a55, 0x24d6013fb9b3f, 0x0f7bc392f6d6b, 0x43bbc14d6966b, 0x078fc54975fd3],
            ],
        ),
        comb_entry(
            [
                [0x5d2065b35b8da, 0x350ac4976ff58, 0x487343ea36a2a, 0x6ac666965489e, 0x6b8341ee8bf90],
                [0x19cce7aee7a52, 0x6dc8a9d5a77e0, 0x6a2ec66a37b4a, 0x36c1e30cf85c3, 0x3619b5d756091],
                [0x1f26b0282c4b2, 0x649f5fdf5c6af, 0x3231f0193564b, 0x46bdbe6f6bd94, 0x6a927b6b7173a],
            ],
            [
                [0x7bd1428878f2d, 0x3a3d2843430fb, 0x5cd068c4d18db, 0x65c278be4a892, 0x5df98d4bad296],
                [0x04b5bb833a98a, 0x585a986661c40, 0x2b3a44d11dd77, 0x0549d5122033f, 0x272630e3d58e0],
                [0x78fd0ecc90b54, 0x3624086b33e6c, 0x562e26fc00516, 0x4d713392fde1b, 0x4325e4aa73a71],
            ],
        ),
        comb_entry(
            [
                [0x5b24f986e4656, 0x5da3d220b63ed, 0x3028dd4408700, 0x2c97c7f9fff96, 0x1d2a6bf8c6c82],
                [0x040863ece88eb, 0x5301dd81191ae, 0x5e23f6bc38c1e, 0x3c6d611283086, 0x056d92a43a0d4],
                [0x5a196fc3da5a1, 0x04876b3da0360, 0x745e461df5ea3, 0x1fb836d1eb14b, 0x66fbb494f1235],
            ],
            [
                [0x5c6ef433c3493, 0x3f01b7f186caf, 0x4dcb6b994dd7a, 0x4a3a3fe96a32d, 0x4966ab79796e7],
                [0x4629acf69f59d, 0x1dbab577e9da4, 0x2cb59eca92873, 0x2169a9ae50fab, 0x5d8c68d043b1b],
                [0x32d4de3b42b0a, 0x562d48c039dc6, 0x62e8f93613968, 0x21bbc121c3b83, 0x77ed1eb4184ee],
            ],
        ),
        comb_entry(
            [
                [0x250b9d85c0fb8, 0x4b179e12f6ea3, 0x426a5a746bf70, 0x32c978b5351c1, 0x14ddff9ee5b00],
                [0x70996f12309d6, 0x0bd387aa73ada, 0x55490476fec8e, 0x706236b01587b, 0x270a0b0557843],
                [0x70640a7862bcc, 0x34be2357fcc3f, 0x744aaee072b02, 0x439c823c1822a, 0x19a4bde1945ae],
            ],
            [
                [0x4e13f201839a0, 0x447c7be2c37fa, 0x5747f8ebbbfff, 0x5e05b2d827835, 0x52e085fb2b62f],
                [0x543f89e92ed1a, 0x55fc8e338c30b, 0x3c0fd3ec1287b, 0x5eea4cfdf4453, 0x5d8b0d2f3c859],
                [0x079eaa54cf2ba, 0x5600364dce248, 0x5ebdff75c9197, 0x6813421de7ee4, 0x0524b42b55eac],
            ],
        ),
        comb_entry(
            [
                [0x726f520a6200a, 0x079e27d5f1373, 0x0c7b74d920111, 0x6e0c531b39fc3, 0x72bbbce11ed39],
                [0x709dec076c49f, 0x64fe7ca7ec818, 0x2810b1195efeb, 0x78220331198f6, 0x14b375487eb4d],
                [0x53c94ab66dc47, 0x7dbeec5add5d0, 0x6cbdf47ad88d0, 0x1bd7847070c37, 0x4f0b1c02700ab],
            ],
            [
                [0x55dbee45447b0, 0x3412400bddfa1, 0x1d5e72db3b0d4, 0x522ccd23c222b, 0x59d242a216e7f],
                [0x0dcad9b829eac, 0x516beaf3a1783, 0x4e108cc8eb9f4, 0x644e1a3091534, 0x1a6110b2e7d4a],
                [0x33f6ae66997ac, 0x546c3073489f0, 0x42ad495a125d8, 0x2a334c2ef60cb, 0x53045e89dcb1f],
            ],
        ),
        comb_entry(
            [
                [0x06787d81951fa, 0x1d65218ef7c2e, 0x3599dce8428b2, 0x5aa739c17d01f, 0x0a4d84710bcc4],
                [0x521ccc1b2e23f, 0x028a7bea54f3f, 0x54521ad2b9f0a, 0x29a640b9764e8, 0x68abe9443e0a7],
                [0x2c6c407831dcb, 0x2e9ab8a21bb42, 0x75013843688c3, 0x077a558a98f35, 0x4106b166bcf44],
            ],
            [
                [0x3b346d75353db, 0x175ca23c45971, 0x42b9bbff3f2c9, 0x5aee5d246a06a, 0x26e3bae5f4f7c],
                [0x23cde8d45fe12, 0x31c889c5a509b, 0x5f8d662f50b08, 0x1595428cb3c0f, 0x7642c93f5616e],
                [0x3daa74595f8e4, 0x170af57d68464, 0x164c9bb79a232, 0x45d1fe2474b0e, 0x0b2e73ca15c9b],
            ],
        ),
        comb_entry(
            [
                [0x57a421cd23668, 0x3a1d5dedfa05c, 0x49112012b67ed, 0x198caa73393d8, 0x7f792f9d2699f],
                [0x5ccd539e4ecf2, 0x5a0aab756b490, 0x5f7e0b56a8fce, 0x41f8a2f1a1cc9, 0x1238b51e12142],
                [0x06b925fd4d924, 0x746c4d501a171, 0x62af4498241bd, 0x267f669b3da5c, 0x2876beb1def34],
            ],
            [
                [0x34428c17f5026, 0x47f6b5394fad7, 0x46719127ac9c8, 0x30171bdd2818c, 0x21ce380db59a6],
                [0x7bfaf79c03a55, 0x0a9976b59e1c7, 0x4f78e7cc1debc, 0x57beae2a922ed, 0x015e68c1476a4],
                [0x5285220066a38, 0x246ae15de783a, 0x1ae29365580f9, 0x6e4c1932cd391, 0x5dd689091f8ee],
            ],
        ),
        comb_entry(
            [
                [0x4e93563144691, 0x41ac3e47e9b90, 0x2a6a3558cbfa2, 0x469a655400309, 0x48f9dbfa0e991],
                [0x4b3333a8a85f8, 0x13cf1afab1ab2, 0x238d47d3a8dda, 0x5da39dfcfa2af, 0x5507d7d2bc41e],
                [0x32903299572fc, 0x452a05a1dc39d, 0x73399edf2332a, 0x0f3c8dfd21a08, 0x5784481964a83],
            ],
            [
                [0x484debfd3c856, 0x1166bfe489975, 0x672b41c58930d, 0x5f45bfc46e52e, 0x3b0e574da2c2e],
                [0x22591a5313084, 0x5dac4e10e43a0, 0x42ff48328b52a, 0x3a4435095c297, 0x56e6c439ad7da],
                [0x4ff4942bdbae6, 0x4565bc3ef38e0, 0x14beb617886b7, 0x5e0f4aed9f9ab, 0x0822b5378f08e],
            ],
        ),
    ],
    // 16^28·B | 16^60·B
    [
        comb_entry(
            [
                [0x42b256768d593, 0x2e88459427b4f, 0x02b3876630701, 0x34878d405eae5, 0x29cdd1adc088a],
                [0x7d1ef5fddc09c, 0x7beeaebb9dad9, 0x058d30ba0acfb, 0x5cd92eab5ae90, 0x3041c6bb04ed2],
                [0x2f2f9d956e148, 0x6b3e6ad65c1fe, 0x5b00972b79e5d, 0x53d8d234c5daf, 0x104bbd6814049],
            ],
            [
                [0x048478f387475, 0x69397d9678a3e, 0x67c8156c976f3, 0x2eb4d5589226c, 0x2c709e6c1c10a],
                [0x7f29362730383, 0x7fd7951459c36, 0x7504c512d49e7, 0x087ed7e3bc55f, 0x7deb10149c726],
                [0x2af6a8766ee7a, 0x08aaa79a1d96c, 0x42f92d59b2fb0, 0x1752c40009c07, 0x08e68e9ff62ce],
            ],
        ),
        comb_entry(
            [
                [0x0fd3168f1ed67, 0x1bb0de7784a3e, 0x34bcb78b20477, 0x0a4a26e2e2182, 0x5be8cc57092a7],
                [0x59a5fd67ff163, 0x3a998ead0352b, 0x083c95fa4af9a, 0x6fadbfc01266f, 0x204f2a20fb072],
                [0x43b3d30ebb079, 0x357aca5c61902, 0x5b570c5d62455, 0x30fb29e1e18c7, 0x2570fb17c2791],
            ],
            [
                [0x5500a4bc130ad, 0x127a17a938695, 0x02a26fa34e36d, 0x584d12e1ecc28, 0x2f1f3f87eeba3],
                [0x509d50ab8f2f9, 0x1b8ab247be5e5, 0x5d9b2e6b2e486, 0x4faa5479a1339, 0x4cb13bd738f71],
                [0x48c75e515b64a, 0x75b6952071ef0, 0x5d46d42965406, 0x7746106989f9f, 0x19a1e353c0ae2],
            ],
        ),
        comb_entry(
            [
                [0x2367f2cb61575, 0x6c39ac04d87df, 0x6d4958bd7e5bd, 0x566f4638a1532, 0x3dcb65ea53030],
                [0x6a9550bb8245a, 0x511f20a1a2325, 0x29324d7239bee, 0x3343cc37516c4, 0x241c5f91de018],
                [0x0172940de6caa, 0x6045b2e67451b, 0x56c07463efcb3, 0x0728b6bfe6e91, 0x08420edd5fcdf],
            ],
            [
                [0x47560bafa05c3, 0x418dcabcc2fa3, 0x35991cecf8682, 0x24371a94b8c60, 0x41546b11c20c3],
                [0x172cdd596bdbd, 0x0731ddf881684, 0x10426d64f8115, 0x71a4fd8a9a3da, 0x736bd3990266a],
                [0x32d509334b3b4, 0x16c102cae70aa, 0x1720dd51bf445, 0x5ae662faf9821, 0x412295a2b87fa],
            ],
        ),
        comb_entry(
            [
                [0x720ab8362fa4a, 0x29c4347cdd9bf, 0x0e798ad5f8463, 0x4fef18bcb0bfe, 0x0d9a53efbc176],
                [0x0c34e04f410ce, 0x344edc0d0a06b, 0x6e45486d84d6d, 0x44e2ecb3863f5, 0x04d654f321db8],
                [0x5c116ddbdb5d5, 0x6d1b4bba5abcf, 0x4d28a48a5537a, 0x56b8e5b040b99, 0x4a7a4f2618991],
            ],
            [
                [0x19b88f57ed6e9, 0x4cdbf1904a339, 0x42b49cd4e4f2c, 0x71a2e771909d9, 0x14e153ebb52d2],
                [0x55261e293eac6, 0x06426759b65cc, 0x40265ae116a48, 0x6c02304bae5bc, 0x0760bb8d195ad],
                [0x61a17cde6818a, 0x53dad34108827, 0x32b32c55c55b6, 0x2f9165f9347a3, 0x6b34be9bc33ac],
            ],
        ),
        comb_entry(
            [
                [0x718025fb15f95, 0x68d6b8371fe94, 0x3804448f7d97c, 0x42466fe784280, 0x11b50c4cddd31],
                [0x3b291af372a4b, 0x60e3028fe4498, 0x2267bca4f6a09, 0x719eec242b243, 0x4a96314223e0e],
                [0x0274408a4ffd6, 0x7d382aedb34dd, 0x40acfc9ce385d, 0x628bb99a45b1e, 0x4f4bce4dce6bc],
            ],
            [
                [0x72f643a78c0b2, 0x3de45c04f9e7b, 0x706d68d30fa5c, 0x696f63e8e2f24, 0x2012c18f0922d],
                [0x469656571f2d3, 0x0aa61ce6f423f, 0x3f940d71b27a1, 0x185f19d73d16a, 0x01b9c7b62e6dd],
                [0x355e55ac89d29, 0x3e8b414ec7101, 0x39db07c520c90, 0x6f41e9b77efe1, 0x08af5b784e4ba],
            ],
        ),
        comb_entry(
            [
                [0x7ce5ae2242584, 0x2d25eb153d4e3, 0x3a8f3d09ba9c9, 0x0f3690d04eb8e, 0x73fcdd14b71c0],
                [0x2616ec49d0b6f, 0x1f95d8462e61c, 0x1ad3e9b9159c6, 0x79ba475a04df9, 0x3042cee561595],
                [0x67079449bac41, 0x5b79c4621484f, 0x61069f2156b8d, 0x0eb26573b10af, 0x389e740c9a9ce],
            ],
            [
                [0x499dc881f2533, 0x34ef26476c506, 0x4d107d2741497, 0x346c4bd6efdb3, 0x32b79d71163a1],
                [0x314d289cc2c4b, 0x23450e2f1bc4e, 0x0cd93392f92f4, 0x1370c6a946b7d, 0x6423c1d5afd98],
                [0x5f8d9edfcb36a, 0x1e6e8dcbf3990, 0x7974f348af30a, 0x6e6724ef19c7c, 0x480a5efbc13e2],
            ],
        ),
        comb_entry(
            [
                [0x4b3ae34dcb9ce, 0x47c691a15ac9f, 0x318e06e5d400c, 0x3c422d9f83eb1, 0x61545379465a6],
                [0x578f6570eac28, 0x644f2339c3937, 0x66e47b7956c2c, 0x34832fe1f55d0, 0x25c425e5d6263],
                [0x606a6f1d7de6e, 0x4f1c0c46107e7, 0x229b1dcfbe5d8, 0x3acc60a7b1327, 0x6539a08915484],
            ],
            [
                [0x1e70b01622071, 0x1f163b5f8a16a, 0x56aaf341ad417, 0x7989635d830f7, 0x47aa27600cb7b],
                [0x14ce442ce221f, 0x18980a72516cc, 0x072f80db86677, 0x703331fda526e, 0x24b31d47691c8],
                [0x41eedc015f8c3, 0x7cf8d27ef854a, 0x289e3584693f9, 0x04a7857b309a7, 0x545b585d14dda],
            ],
        ),
        comb_entry(
            [
                [0x21f74c3d2f773, 0x024b88d08bd3a, 0x6e678cf054151, 0x43631272e747c, 0x11c5e4aac5cd1],
                [0x4dbd414bb4a19, 0x7930849f1dbb8, 0x329c5a466caf0, 0x6c824544feb9b, 0x0f65320ef019b],
                [0x6d1b1cafde0c6, 0x462c76a303a90, 0x3ca4e693cff9b, 0x3952cd45786fd, 0x4cabc7bdec330],
            ],
            [
                [0x7275ea0d43a0f, 0x681137dd7ccf7, 0x1e79cbab79a38, 0x22a214489a66a, 0x0f62f9c332ba5],
                [0x4e4d0e3b321e1, 0x7451fe3d2ac40, 0x666f678eea98d, 0x038858667fead, 0x4d22dc3e64c8d],
                [0x46589d63b5f39, 0x7eaf979ec3f96, 0x4ebe81572b9a8, 0x21b7f5d61694a, 0x1c0fa01a36371],
            ],
        ),
    ],
    // 16^29·B | 16^61·B
    [
        comb_entry(
            [
                [0x2a8fb532f7428, 0x408d49c4e42df, 0x67a92036f50ba, 0x781a99bb29dc5, 0x4065947223973],
                [0x0a19c1a54a044, 0x48ef7b3f77ef8, 0x3c8a5c9287178, 0x706d371e508ad, 0x1819bb953f2e9],
                [0x7bb795e042e84, 0x34ed316e28931, 0x7f98a55f43762, 0x29245fd85d213, 0x36ba82e721200],
            ],
            [
                [0x47449bc7cd692, 0x55cdee7bbfcea, 0x20df8a43e6afa, 0x0c1a5780e5380, 0x63ab1b5d3f1bc],
                [0x6e5e854c53fae, 0x02569e7fe9823, 0x2d9e9c9a82c1b, 0x1f799aa07c070, 0x15f18fc3cd07e],
                [0x50763b028f48c, 0x00aad40cbe64e, 0x5256d6018081d, 0x046ea9dec0961, 0x08706c9b865f5],
            ],
        ),
        comb_entry(
            [
                [0x6cbb74245ec41, 0x3c68690e2dac1, 0x08a137bf66fa2, 0x6da6492057f72, 0x4472f648d0531],
                [0x69d0a57274ed5, 0x64c100962f91a, 0x1577eb116ea00, 0x19cef9e6d0811, 0x77d221232709b],
                [0x26d7064ad94d8, 0x7b35ec44c6931, 0x70507d296d723, 0x2c646547682a2, 0x2c63bec3662d3],
            ],
            [
                [0x4a2ab3d343dff, 0x5b01578c2fe6f, 0x333ff286a31a8, 0x0dcc724f01aea, 0x48b46beebaa1d],
                [0x11b4138b41246, 0x24df3584d7993, 0x72eaef490ee71, 0x6805cf7a4a6db, 0x5fba433dd082e],
                [0x1e355c9941ad0, 0x3ce8931f09389, 0x198f972e5cd2b, 0x059a0e1ff6833, 0x0ecfedf8e8e71],
            ],
        ),
        comb_entry(
            [
                [0x60d8bea787955, 0x7d6be8036effc, 0x4d5733ae77045, 0x76fc8e3e04d0c, 0x22692ef59442b],
                [0x18b3a8586f8bf, 0x6d97632de134a, 0x0e173ca7b9c6b, 0x468d50312f351, 0x1deb2176ddd7c],
                [0x3d19a2066cf6c, 0x189b98f9af0ac, 0x4363d89006ff6, 0x02f6cbb535f66, 0x67cfd773a278b],
            ],
            [
                [0x30f9f9cd470d9, 0x37485ec010ec8, 0x6b6b57ad8ab32, 0x0400c4c14be2c, 0x7789dd2db78c5],
                [0x77463e9403762, 0x5d1bf99392e89, 0x793378fde6a37, 0x21a8b1d324b2a, 0x3b61788db284f],
                [0x228190d6ef6b2, 0x648d9c97f5644, 0x42db31ea5299a, 0x467a360d3bd27, 0x4236ccffeb733],
            ],
        ),
        comb_entry(
            [
                [0x431faef3ee475, 0x153c45fb251bd, 0x09b2ac6676ffe, 0x05ca89688aca7, 0x0cde561eec431],
                [0x7a9855a4e586a, 0x48937d56fc5ab, 0x074cf4d97e3de, 0x6f75503a6eef9, 0x185cba721bcb9],
                [0x69da3f4e3cb41, 0x6a81ef2efd270, 0x118ee0efc0e4b, 0x7768131027e68, 0x3ec91a769eec6],
            ],
            [
                [0x7404d0d55e274, 0x33895a56a7092, 0x6a55cd1b1998f, 0x39e7617d86cd6, 0x2617e120cdb8f],
                [0x02dbfda777df6, 0x1817306d3c77b, 0x430da65c6c5df, 0x0f88e874231c2, 0x5a71945b48e2d],
                [0x03dd5405b4b42, 0x0821648a12de4, 0x0aa2118c9fb18, 0x5b54e1a391856, 0x77de29fc11ffe],
            ],
        ),
        comb_entry(
            [
                [0x5f75bf78166ad, 0x71d619af5e3d3, 0x7abe62137f6a0, 0x67e5d00176c60, 0x13fedb3e11f33],
                [0x52fb7b0a3402f, 0x17f6d3e9501f5, 0x7e3aa9919857b, 0x44b7ba2de6462, 0x7a5fa8794a94e],
                [0x58faa13cd67a1, 0x0317b76a2ea52, 0x22116ce597b82, 0x5478b72c6d517, 0x357d397d5499d],
            ],
            [
                [0x457c983b778a8, 0x53affd2259615, 0x47d67714f3732, 0x6d630e15c2a7f, 0x3a1a2cf0f0de7],
                [0x6138fecced2ca, 0x27d52c773506b, 0x0583a9a327abc, 0x44964afdfe059, 0x575e66f3ad877],
                [0x03a27c88fcb3a, 0x124ebd8161330, 0x5b0af94d1699e, 0x45922cbc4e87f, 0x62f882651e70a],
            ],
        ),
        comb_entry(
            [
                [0x7a05fb0bace6c, 0x18395f343c3d7, 0x60ad86b24d188, 0x7f6663b8e620e, 0x2d94a16aa5f74],
                [0x5acb4194bfbf8, 0x6375cb0532903, 0x44dca8135df8f, 0x4f08f7a30973e, 0x3a8d867e70ff6],
                [0x0cd5d55aff958, 0x38eaacee42deb, 0x59489f6e8faa9, 0x1af3ae091ccc8, 0x69be1343c2f2b],
            ],
            [
                [0x2e2c759ff1be4, 0x12761c816e10b, 0x7c9cde4524517, 0x54ae233f3fd3f, 0x4eeecf0ad5c73],
                [0x22986698a19e0, 0x42e9af14e2db0, 0x32c7d1f726087, 0x628a0d42f98fb, 0x352721c2bcda9],
                [0x29952213fc985, 0x1a6d142e8c906, 0x3056a94421f3c, 0x610c72930d8b3, 0x2d5b2d842ed24],
            ],
        ),
        comb_entry(
            [
                [0x11d5ee197c92a, 0x3e528a233e1c1, 0x0d3a6713d4406, 0x34b0a1b3cdcf8, 0x7d88112e4d24c],
                [0x3bdac684b8de3, 0x207f940e31057, 0x25aaaa28bd31f, 0x1bb19bfc97df0, 0x200d4d8c63587],
                [0x2ed4b4893b32b, 0x7d7cb372c8411, 0x697941cfbefc8, 0x6ca6bb16f586d, 0x69607bd681bd9],
            ],
            [
                [0x7ebd9ebd3ded1, 0x6e720432e8059, 0x0c286df516c85, 0x3613abb7c09ff, 0x5691b6f9a34ef],
                [0x7d13d196ac533, 0x59b7017c56bd6, 0x3d6b890ddc8d3, 0x67670a267fe3e, 0x5226bcf9c441a],
                [0x66c7223e5b547, 0x6d0661acf2f3d, 0x62b73a5bd7d41, 0x601f6b9f0f4b6, 0x27c3da1e1d8cc],
            ],
        ),
        comb_entry(
            [
                [0x6021068de1ce1, 0x4e1db9783fed7, 0x5541697a35463, 0x7e871f7fee80d, 0x35f63353d3ec3],
                [0x73bd49323a902, 0x2cd658dca676f, 0x1e14a9df086d5, 0x70072dd47fa9d, 0x28bc77a5838ec],
                [0x278a8e25d8036, 0x0128666920c77, 0x23394c98d9478, 0x292246c179014, 0x3a31abfa36b57],
            ],
            [
                [0x1efb23fe24c74, 0x3e2ca37c02fd7, 0x61637a8f943d2, 0x07c9f53996e10, 0x17377bd75bb81],
                [0x02e71630ef9f6, 0x0656c99dc0506, 0x58a4afb0b5288, 0x78c0484101825, 0x5fca747aa82ad],
                [0x203c35c258ea5, 0x58d79619e2465, 0x110859a1bc8e8, 0x3159ed6c68697, 0x04a8933cab768],
            ],
        ),
    ],
    // 16^30·B | 16^62·B
    [
        comb_entry(
            [
                [0x69624089c0a2e, 0x0075fc8e70473, 0x13e84ab1d2313, 0x2c10bedf6953b, 0x639b93f0321c8],
                [0x7788f3f78d289, 0x5942809b3f811, 0x5973277f8c29c, 0x010f93bc5fe67, 0x7ee498165acb2],
                [0x508e39111a1c3, 0x290120e912f7a, 0x1cbf464acae43, 0x15373e9576157, 0x0edf493c85b60],
            ],
            [
                [0x604b622943dff, 0x1c899f6741a58, 0x60219e2f232fb, 0x35fae92a7f9cb, 0x0fa3614f3b1ca],
                [0x02b0e8c936a50, 0x6b83b58b6cd21, 0x37ed8d3e72680, 0x0a037db9f2a62, 0x4005419b1d2bc],
                [0x3febdb9be82f0, 0x5e74895921400, 0x553ea38822706, 0x5a17c24cfc88c, 0x1fba218aef40a],
            ],
        ),
        comb_entry(
            [
                [0x48158599b5a68, 0x1fd75bc41d5d9, 0x2d9fc1fa95d3c, 0x7da27f20eba11, 0x403b92e3019d4],
                [0x7c4d284764113, 0x7fefebf06acec, 0x39afb7a824100, 0x1b48e47e7fd65, 0x04c00c54d1dfa],
                [0x22f818b465cf8, 0x342901dff09b8, 0x31f595dc683cd, 0x37a57745fd682, 0x355bb12ab2617],
            ],
            [
                [0x49448fac8f53e, 0x34f74c6e8356a, 0x0ad780607dba2, 0x7213a7eb63eb6, 0x392e3acaa8c86],
                [0x657043e7b0194, 0x5c11b55efe9e7, 0x7737bc6a074fb, 0x0eae41ce355cc, 0x6c535d13ff776],
                [0x534e93e8a35af, 0x08b10fd02c997, 0x26ac2acb81e05, 0x09d8c98ce3b79, 0x25e17fe4d50ac],
            ],
        ),
        comb_entry(
            [
                [0x664cc7493bbf4, 0x33d94761874e3, 0x0179e1796f613, 0x1890535e2867d, 0x0f9b8132182ec],
                [0x1dac75a8c7318, 0x3b679d5423460, 0x6b8fcb7b6400e, 0x6c73783be5f9d, 0x7518eaf8e052a],
                [0x059c41b7f6c32, 0x79e8706531491, 0x6c747643cb582, 0x2e20c0ad494e4, 0x47c3871bbb175],
            ],
            [
                [0x09bd71e04f676, 0x25ac841f2a145, 0x1a47eac823871, 0x1a8a8c36c581a, 0x255751442a9fb],
                [0x77ff576f121a7, 0x4e5f9b0fc722b, 0x46f949b0d28c8, 0x4cde65d17ef26, 0x6bba828f89698],
                [0x1bc6690fe3901, 0x314132f5abc5a, 0x611835132d528, 0x5f24b8eb48a57, 0x559d504f7f6b7],
            ],
        ),
        comb_entry(
            [
                [0x4539771ec4f48, 0x7b9318badca28, 0x70f19afe016c5, 0x4ee7bb1608d23, 0x00b89b8576469],
                [0x65d50c85066b0, 0x6167453361f7c, 0x06ba3818bb312, 0x6aff29baa7522, 0x08fea02ce8d48],
                [0x5dd7668deead0, 0x4096d0ba47049, 0x6275997219114, 0x29bda8a67e6ae, 0x473829a74f75d],
            ],
            [
                [0x38378b3eb54d5, 0x4d4aaa78f94ee, 0x4a002e875a74d, 0x10b851367b17c, 0x01ab12d5807e3],
                [0x091e7f6d266fd, 0x36060ef037389, 0x18788ec1d1286, 0x287441c478eb0, 0x123ea6a3354bd],
                [0x5189041e32d96, 0x05b062b090231, 0x0c91766e7b78f, 0x0aa0f55a138ec, 0x4a3961e2c918a],
            ],
        ),
        comb_entry(
            [
                [0x2da754679c418, 0x3164c31be105a, 0x11fac2b98ef5f, 0x35a1aaf779256, 0x2078684c4833c],
                [0x1533aad3902c9, 0x1dde06b11e47b, 0x784bed1930b77, 0x1c80a92b9c867, 0x6c668b4d44e4d],
                [0x0cf217a78820c, 0x65024e7d2e769, 0x23bb5efdda82a, 0x19fd4b632d3c6, 0x7411a6054f8a4],
            ],
            [
                [0x43be0f8e6bba0, 0x68fdffc614e3b, 0x4e91dab5b3be0, 0x3b1d4c9212ff0, 0x2cd6bce3fb1db],
                [0x7d644f3233f1e, 0x1c69f9e02c064, 0x36ae5e5266898, 0x08fc1dad38b79, 0x68aceead9bd41],
                [0x4c90ef3d7c210, 0x496f5a0818716, 0x79cf88cc239b8, 0x2cb9c306cf8db, 0x595760d5b508f],
            ],
        ),
        comb_entry(
            [
                [0x59d32b99dc86d, 0x6ac075e22a9ac, 0x30b9220113371, 0x27fd9a638966e, 0x7c136574fb813],
                [0x2e53d18b175b4, 0x33e7254204af3, 0x3bcd7d5a1c4c5, 0x4c7c22af65d0f, 0x1ec9a872458c3],
                [0x6a4d400a2509b, 0x041791056971c, 0x655d5866e075c, 0x2302bf3e64df8, 0x3add88a5c7cd6],
            ],
            [
                [0x1bfe104aa6397, 0x11494ff996c25, 0x64251623e5800, 0x0d49fc5e044be, 0x709fa43edcb29],
                [0x2cbebfd022790, 0x0b8822aec1105, 0x4d1cfd226bccc, 0x515b2fa4971be, 0x2cb2c5df54515],
                [0x25d8c63fd2aca, 0x4c5cd29dffd61, 0x32ec0eb48af05, 0x18f9391f9b77c, 0x70f029ecf0c81],
            ],
        ),
        comb_entry(
            [
                [0x15770b635dcf2, 0x59ecd83f79571, 0x2db461c0b7fbd, 0x73a42a981345f, 0x249929fccc879],
                [0x298d459393046, 0x30bfecb3d90b8, 0x3d9b8ea3df8d6, 0x3900e96511579, 0x61ba1131a406a],
                [0x0a0f116959029, 0x5974fd7b1347a, 0x1e0cc1c08edad, 0x673bdf8ad1f13, 0x5620310cbbd8e],
            ],
            [
                [0x307b32eed3e33, 0x6748ab03ce8c2, 0x57c0d9ab810bc, 0x42c64a224e98c, 0x0b7d5d8a6c314],
                [0x2afaa5e10b0b9, 0x61de08355254d, 0x0eb587de3c28d, 0x4f0bb9f7dbbd5, 0x44eca5a2a74bd],
                [0x448327b95d543, 0x0146681e3a4ba, 0x38714adc34e0c, 0x4f26f0e298e30, 0x272224512c7de],
            ],
        ),
        comb_entry(
            [
                [0x193434934d643, 0x0d4a2445eaa51, 0x7d0708ae76fe0, 0x39847b6c3c7e1, 0x37676a2a4d9d9],
                [0x6b5f477e285d6, 0x4ed91ec326cc8, 0x6d6537503a3fd, 0x626d3763988d5, 0x7ec846f3658ce],
                [0x68f3f1da22ec7, 0x6ed8039a2736b, 0x2627ee04c3c75, 0x6ea90a647e7d1, 0x6daaf723399b9],
            ],
            [
                [0x492af49c5342e, 0x2365cdf5a0357, 0x32138a7ffbb60, 0x2a1f7d14646fe, 0x11b5df18a44cc],
                [0x3bb8a42a975fc, 0x6f2d5b46b17ef, 0x7b6a9223170e5, 0x053713fe3b7e6, 0x19735fd7f6bc2],
                [0x390d042c84266, 0x1efe32a8fdc75, 0x6925ee7ae1238, 0x4af9281d0e832, 0x0fef911191df8],
            ],
        ),
    ],
    // 16^31·B | 16^63·B
    [
        comb_entry(
            [
                [0x64a5610628564, 0x795169be68b23, 0x68e390ca92ee1, 0x2376f1512b973, 0x3cbdabd9fee50],
                [0x6bbdd2cd13070, 0x4bf0b41d3d035, 0x37ffb2e58b90c, 0x0736f49c8d565, 0x53177fda52c23],
                [0x4970650b9de79, 0x7786036b374f7, 0x5ab8e30f44a9f, 0x4ee0132973469, 0x79d739835a619],
            ],
            [
                [0x07ca1ab1c6eb9, 0x7c2d6d0f6762a, 0x1ea46aef5123c, 0x7609a2afdbf96, 0x7579229e2f2ad],
                [0x5dcb85b1c16b7, 0x5078f64f4ad56, 0x5545efa5303f3, 0x7d552588e0d39, 0x499238d0ba0ea],
                [0x46e527aba8b57, 0x0f17a2c8f7d9e, 0x5c1bfbc568231, 0x06abd78e3532f, 0x6345fa78f03a3],
            ],
        ),
        comb_entry(
            [
                [0x54df64131c1bd, 0x430dd8b045b26, 0x167cf09d60252, 0x1412232770972, 0x6c11fce4cb133],
                [0x1d9920d591737, 0x25d368d9ac439, 0x626ff2a6fa907, 0x7fc7107421006, 0x79d99f946eae5],
                [0x3483568673205, 0x507955b2d9e2f, 0x3ff8e18e1f7ab, 0x2ccb0da38feab, 0x31741195b745a],
            ],
            [
                [0x2f95f1015e7a1, 0x3b536804c7be0, 0x7a8441de43b10, 0x464a69d075099, 0x54f70be7e33af],
                [0x3cbe9bdd8f0a4, 0x37fa2ee60527a, 0x45ea1d76c54b0, 0x77f3edeee36bf, 0x3e1a71cc8f426],
                [0x4a3e390babd62, 0x4e05239067907, 0x5e4031203b78d, 0x7d0e4401c6669, 0x2c5fc0231ec31],
            ],
        ),
        comb_entry(
            [
                [0x10190b77a360b, 0x41332bce05d1a, 0x0091eaa66e60c, 0x543dea7effc7d, 0x2772e344e0d36],
                [0x0ba683b02a047, 0x2dfddf6d902ff, 0x55b2f89408482, 0x0adb809cdf10a, 0x203e44a11d989],
                [0x63eba37b9e39f, 0x52e476b447ad0, 0x1701d88416f05, 0x46a0827b22cd3, 0x567951295b4d3],
            ],
            [
                [0x2911717038b4f, 0x4393bddf03fd7, 0x43620d39448dc, 0x5e30e4bf273ae, 0x68afae7a23dc3],
                [0x2e4d102456e65, 0x0395a8f723884, 0x2dbff761d052b, 0x0078ac9715dd1, 0x75d9d2bff5c21],
                [0x1b4763626e81c, 0x6d79405dbab7b, 0x7c1dece2659a4, 0x23885208c9eb0, 0x3097a24200ce5],
            ],
        ),
        comb_entry(
            [
                [0x7d60613037524, 0x6d61f784d4a6b, 0x7a642bb8842b7, 0x5fcd646854d91, 0x47204d08d72fd],
                [0x42eb30d4b497f, 0x0d7379990e0e4, 0x045bd147be58c, 0x5821bca849a6c, 0x05468d6201405],
                [0x565a9f93267de, 0x1b81ab1d1401e, 0x4638a3b3b3f5e, 0x1a9510af16e79, 0x4599ee919b633],
            ],
            [
                [0x27734c7f8b84c, 0x7c0364e1d2ae8, 0x395929bc50684, 0x6a40168d6ff5a, 0x4bb23d92ce83b],
                [0x2e7246695c486, 0x686b512c0f42c, 0x344a8dc4c758c, 0x1b198290ab0d0, 0x56704bada6afb],
                [0x44aa752f912b9, 0x59b0cee1915ed, 0x723356179997d, 0x53f261ad641d1, 0x2b7a29c010a58],
            ],
        ),
        comb_entry(
            [
                [0x220ca70e0e76b, 0x31d53e6129a78, 0x49c4a0ac4afa9, 0x01414a6ef6461, 0x0c3539e1a1d1d],
                [0x46d6b861ae579, 0x21ed5d53b958e, 0x095b530c6ac19, 0x2ef120eb308a0, 0x2f485e853d21a],
                [0x744839c0833f3, 0x7fa5578908652, 0x4d6205dbf9895, 0x4de2993e8c0a5, 0x65712585893fe],
            ],
            [
                [0x07f77d0c1cec3, 0x6d758925f1880, 0x1a76abe344082, 0x670197614eabf, 0x599408759d95f],
                [0x10a23bf00086e, 0x3dce6dfef8670, 0x1248b52bf3a49, 0x30d9eb0733871, 0x11ce9e714f960],
                [0x6f713d815bac1, 0x3a90b7c4b8433, 0x144f147c50519, 0x1c9b6aa23e627, 0x174926be5ef44],
            ],
        ),
        comb_entry(
            [
                [0x02fb732a61161, 0x3a69aa4151382, 0x66a45db923843, 0x0031b2e31aa37, 0x32f6fe4c046f6],
                [0x29f1bd708ee3f, 0x0b5cc80fa1038, 0x28fae9f772d68, 0x418cbd760ebe9, 0x1590521a91d50],
                [0x3a11ec7910acc, 0x71e2da4f5c814, 0x6c65752404f7f, 0x2318d4b906c55, 0x1bb9fe452ea98],
            ],
            [
                [0x6b2f9fc5bd5bb, 0x55c3b021c36bb, 0x4a871664b6a9c, 0x51257e267ee5b, 0x497d78813fc22],
                [0x5d41593ea022e, 0x441da1ddac7de, 0x4e0b23172f306, 0x0d6c7e9276783, 0x6fa42ead06d8e],
                [0x6824a1f73371f, 0x389eb6ce6dc4e, 0x3e91b9dfdf3c0, 0x64b3f100ff182, 0x785a36a357808],
            ],
        ),
        comb_entry(
            [
                [0x1d950b3d54f9e, 0x7dc01a6783d3a, 0x13f1ab0b57e72, 0x664a8e1632b50, 0x65c091ee3c1cb],
                [0x66c95cc36747c, 0x26d617861b9eb, 0x1e5ebc0a50805, 0x1e4a29d633e77, 0x5eae6ab32a8bb],
                [0x3661114f118ea, 0x772869395ae10, 0x3a67d00acdee1, 0x34c3939fa8e5a, 0x78a2a95823d75],
            ],
            [
                [0x7bdfd63014d2b, 0x38d94eaf1704b, 0x02d77c32148da, 0x647ad97e6942e, 0x12ab214c58048],
                [0x442985d517bc3, 0x0f5cca6cf00e0, 0x169dd8dab355b, 0x31580513cc1cc, 0x5167effae5126],
                [0x6a9e10f53c4b6, 0x3f159234297a9, 0x3306ae859cf71, 0x512d47c0d2715, 0x33a92a7924332],
            ],
        ),
        comb_entry(
            [
                [0x072e95c8c2ace, 0x2cca3d3897456, 0x39ed0ada73ff2, 0x759a219477c21, 0x5dd996c122aad],
                [0x23c425ef83207, 0x279352696b69e, 0x7f61fdeafe253, 0x098683846099c, 0x1876789117166],
                [0x35ef0670c507c, 0x057278677f24b, 0x37400fe066f21, 0x63a083c974d38, 0x59ad4b7a6e28d],
            ],
            [
                [0x1f49927996c02, 0x31c09a2ea53ba, 0x740b0f832cec1, 0x7588fbf444b3f, 0x2f964268cb8b3],
                [0x15ba0218f2ada, 0x0e661f7394f75, 0x31b641f3fd08a, 0x72a6d6d24b6ab, 0x5380c296f4bee],
                [0x7270466898d0a, 0x3215fe7ef53a9, 0x76ae914f4261e, 0x34e684f79b133, 0x7761455e7b1c6],
            ],
        ),
    ],
];

/// `BASE_ODD[j] = (2j+1)·B`, what a width-5 NAF indexes.
static BASE_ODD: [Cached; 8] = [
    cached(
        [0x493c6f58c3b85, 0x0df7181c325f7, 0x0f50b0b3e4cb7, 0x5329385a44c32, 0x07cf9d3a33d4b],
        [0x03905d740913e, 0x0ba2817d673a2, 0x23e2827f4e67c, 0x133d2e0c21a34, 0x44fd2f9298f81],
        [0x11205877aaa68, 0x479955893d579, 0x50d66309b67a0, 0x2d42d0dbee5ee, 0x6f117b689f0c6],
        [0x0000000000001, 0x0000000000000, 0x0000000000000, 0x0000000000000, 0x0000000000000],
    ),
    cached(
        [0x36174f1981549, 0x17d9a0600fa59, 0x75b00590cdcd2, 0x41c32cdfe47ff, 0x71b659648aa08],
        [0x3369af876562d, 0x64abf48a62cf4, 0x0c00e341f59bb, 0x575133eddecfe, 0x622721b452d48],
        [0x6306a606d9bdb, 0x5bde689d46c22, 0x4880c1b68649d, 0x02243f62a6cbf, 0x771ea6c5c80eb],
        [0x3c59d9fba69e4, 0x0893aa464ebf3, 0x0900b25633cf0, 0x7215ca7060acd, 0x50101f45083ac],
    ),
    cached(
        [0x76706b1b6817b, 0x199bd9f6a0d29, 0x126cf6302e6e7, 0x29a75cae7fcc9, 0x5b826633693b0],
        [0x381bfc072f49a, 0x58962d62b130b, 0x7d3d698d9e37f, 0x584ffa5616ee0, 0x175dc2856fe2a],
        [0x34c54961137a2, 0x08559604b6018, 0x32c940411c47a, 0x1d08b52b07806, 0x43d40a60ab451],
        [0x430ea5e01440f, 0x48e2d2ff446b8, 0x6c53896308189, 0x28c8ec22c7fb3, 0x373c0f045cadf],
    ),
    cached(
        [0x014384b1395e9, 0x2fa93a2de17d4, 0x17722f302676c, 0x222f16815625d, 0x424ef0ca14e92],
        [0x6cc9bd3946a6a, 0x159b59ac47498, 0x1bd60942e433e, 0x50666529d038a, 0x5a4cced5461c0],
        [0x08df56365fcbf, 0x2004d51340fec, 0x21911206d0e2e, 0x3a20d79d1b5ff, 0x634b88af3ddfb],
        [0x7f4d60c5484e3, 0x08def1f106e85, 0x1fc53860f6ed8, 0x2093a7dc7ee02, 0x24076e2ea0df6],
    ),
    cached(
        [0x1b56081eb45e9, 0x2d361c61e0fa6, 0x18ad924a1eb1b, 0x61bcfa83d3cb0, 0x1eeec33a741c7],
        [0x5ec352dcb4b99, 0x6197b03f6a36a, 0x07895deecab48, 0x019ffe378ad2d, 0x5207aa29b4ded],
        [0x7052511fa8b23, 0x4baa0ac5ba310, 0x536a7b67014d7, 0x3f612d8154457, 0x62a66fad1e352],
        [0x1a2d0edbab4db, 0x0b24817e039e4, 0x4da7dac526ea2, 0x7ac5f91344ff0, 0x5de883d4001f8],
    ),
    cached(
        [0x4d22bc739c1dc, 0x44d3469de2507, 0x4baf853bca636, 0x5338ebd5c910c, 0x7b6437f92b959],
        [0x1595b0fb4402c, 0x5ac83a4805465, 0x60dc165c0ea84, 0x721b743bd2cf8, 0x595dab59999f5],
        [0x13925dc1945ba, 0x5b19f5d5274fc, 0x4717ddd52547c, 0x7295abf88706a, 0x6db4a6f10f8d1],
        [0x68aba5c461ec4, 0x2a4e4142a44c8, 0x653fa0eb1fa3a, 0x0f8c7be1b507f, 0x4faa5d12959d6],
    ),
    cached(
        [0x4af635a7b920f, 0x5222c37dfd86f, 0x0035f815f4c06, 0x79b2d829c416f, 0x4278ba85a90fe],
        [0x6821950a6ee7a, 0x028117bf81bf7, 0x4cd13b50c96c3, 0x278940234bcf7, 0x0b60acc0b0b4e],
        [0x3532342a59649, 0x7b3cf141da325, 0x7613bbc3627b7, 0x6814b0e3e79ad, 0x299aeb3e3ef4d],
        [0x2c3781bad800f, 0x6171892a61022, 0x2f6ad473281fe, 0x138be882fe4e2, 0x53de4071ca95a],
    ),
    cached(
        [0x38fde68fd4ea3, 0x0ab536d14bb85, 0x56db736b6cc02, 0x6b00cecbda380, 0x187e413cbd0ef],
        [0x0f2fdb0c5dcd9, 0x2a14b9b977894, 0x2f3a693057095, 0x4493eb9f642b7, 0x558dcfcca9c9f],
        [0x0a46de3af830d, 0x200948e91cf49, 0x032d3a6cf4077, 0x480ecd0655923, 0x049043d7f5671],
        [0x3813e399ec246, 0x7c8aabc761599, 0x752aa352ff584, 0x70f0b06474730, 0x06414e001c19d],
    ),
];
