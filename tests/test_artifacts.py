"""Byte identity of the benchmark's verify runs, as a tier-1 check.

Each entry of the farey-verify and s5-verify menus is run through the CLI
with ``--out``; the SHA-256 of its stdout and of every artifact must match
the digests below, which were recorded before the Farey verify fast paths
(integer displacement scan, axis floor, set adjacency, transport memo) went
in.  The menu is copied from the benchmark's workload list rather than
imported, so the benchmark's files stay independent of the test suite.
Re-record the digests only for a change that is meant to alter artifacts.
"""

import hashlib

import pytest
from click.testing import CliRunner

from curvelab import cli

FAREY_SUITES = "simplicial,lift,ball2,covering"
S5_SUITES = "simplicial,lift,ball2,covering,transfer,support,relations"


def farey_args(height, matrix, power, conj_len):
    return ["verify", "--instance", "farey", "--height", str(height),
            "--matrix", matrix, "--power", str(power),
            "--conj-len", str(conj_len), "--suites", FAREY_SUITES]


def s5_args(word_bound, sample):
    return ["verify", "--instance", "s5", "--word-bound", str(word_bound),
            "--sample", sample, "--suites", S5_SUITES]


# id -> (CLI arguments, stdout digest, {artifact: digest})
MENU = {
    "h30-m2,1,1,1-k8-c1": (
        farey_args(30, "2,1,1,1", 8, 1),
        "0d87ac3ebfa10f18916af033585551a62f86b0452d7a8ae5d86db2800a5d016a",
        {
            "quotient.json":
                "2ea1f9a697a44e8199ae68de9f5acfbb75ae05219b38ec304830ee2a8e6e042d",
            "report-ball2-isometry.json":
                "56f5fea0b1c3618dc0ca1c58c88385fc986dfe352c1d3371bbfc9d47e6fd5bed",
            "report-lipschitz-lifting.json":
                "f58a75c0e9a11237a2b9b0f2ca498af22309043dada37b18a5efdc1b9d60bcae",
            "report-local-covering.json":
                "60c40d5638ea663ce84be96bc2043dfc72bd7a1cb539b073836ab45cb639376e",
            "report-simplicial.json":
                "8950028464d283ce5e589b510082f7c7a5cb39bc00bf899b82e13eb2d2218fbd",
            "window.json":
                "bd6ca26eb0666ce2248ebac7135fde8f3f235e0aa61b92165cde5e76e53d0f98",
        },
    ),
    "h30-m2,1,1,1-k6-c1": (
        farey_args(30, "2,1,1,1", 6, 1),
        "31522b85a41bf67a4bb3683963070e71eba70e4fe74c6a241b366b715ae98873",
        {
            "quotient.json":
                "b01163aa1af7eb76b4ad41942a1a1c7b49a1b3ac095b19c1628a6f10fd235a71",
            "report-ball2-isometry.json":
                "1a83c2298c6ecd9e8c941c9c72b9793e876c6e10f7688e01d328ed14ace589ea",
            "report-lipschitz-lifting.json":
                "a9b343f46397cd2fe86b44558edbe874e38523bc8b1f1d0da84167a0751f489c",
            "report-local-covering.json":
                "7268f15bd963b2db76b5a66b96f281605a8992729987d5051ddeb4c235895a3f",
            "report-simplicial.json":
                "2f4156fe6a7edc1f19ce05872743c6067aef1fd782ded8a6b6491873c8013a20",
            "window.json":
                "bd6ca26eb0666ce2248ebac7135fde8f3f235e0aa61b92165cde5e76e53d0f98",
        },
    ),
    "h30-m2,1,1,1-k4-c1": (
        farey_args(30, "2,1,1,1", 4, 1),
        "c3e7e00d0163a30c76d2d23433a3e830ffd1c1645e645b731446ab4aee71f188",
        {
            "quotient.json":
                "58a610071fd50f592628fd0723db32537c9f472019642dfbb289d617998ece77",
            "report-ball2-isometry.json":
                "0e4dfd7a41bee0d776e888beb8312e74efdef56f1eedb649af9a58c8ef342610",
            "report-lipschitz-lifting.json":
                "da2eb342b3a9be135b7df6c5af54bdf8a861a24c516162b271c34c7c0bd872cb",
            "report-local-covering.json":
                "a4de099f2fd330b57c7bafa78f6d032c1e62bd96053ae08023fb87072da52a6b",
            "report-simplicial.json":
                "5fd6e7d973e0eced58d788ed28f943ccebcf3b0251b64a8b1cfe053a4bca1cd2",
            "window.json":
                "bd6ca26eb0666ce2248ebac7135fde8f3f235e0aa61b92165cde5e76e53d0f98",
        },
    ),
    "h30-m3,2,1,1-k8-c1": (
        farey_args(30, "3,2,1,1", 8, 1),
        "0d87ac3ebfa10f18916af033585551a62f86b0452d7a8ae5d86db2800a5d016a",
        {
            "quotient.json":
                "a795ef3e863c59fc4fd5bcb4bdc2e81094bfa00e2e67034009dbbf9998045885",
            "report-ball2-isometry.json":
                "56f5fea0b1c3618dc0ca1c58c88385fc986dfe352c1d3371bbfc9d47e6fd5bed",
            "report-lipschitz-lifting.json":
                "f58a75c0e9a11237a2b9b0f2ca498af22309043dada37b18a5efdc1b9d60bcae",
            "report-local-covering.json":
                "60c40d5638ea663ce84be96bc2043dfc72bd7a1cb539b073836ab45cb639376e",
            "report-simplicial.json":
                "8950028464d283ce5e589b510082f7c7a5cb39bc00bf899b82e13eb2d2218fbd",
            "window.json":
                "bd6ca26eb0666ce2248ebac7135fde8f3f235e0aa61b92165cde5e76e53d0f98",
        },
    ),
    "h30-m3,2,1,1-k6-c1": (
        farey_args(30, "3,2,1,1", 6, 1),
        "ad4f8989b7c7b652e7bcde6748bb468c71be2f14079c1039ab6ce2a3f7735e74",
        {
            "quotient.json":
                "9da524fb44dda2307c754ba8ae22b4659d88104622f765374e36448e156db634",
            "report-ball2-isometry.json":
                "cdeecdbb74271cf35025fb0b7727bf21df36b7a9351d075304291184903928da",
            "report-lipschitz-lifting.json":
                "d35602602632da9179c449e9cb822f7810a377ccfa74a5e1b285a7784339a0df",
            "report-local-covering.json":
                "0317ed41e6f497606d219ef8e52970c39045f620d56e52de6bdbf8153bbd8145",
            "report-simplicial.json":
                "56afc7f858e445c0ae4d03d15030b9b41fe9f2cb38fb9b78e31fe5161a59d28c",
            "window.json":
                "bd6ca26eb0666ce2248ebac7135fde8f3f235e0aa61b92165cde5e76e53d0f98",
        },
    ),
    "h30-m3,2,1,1-k4-c1": (
        farey_args(30, "3,2,1,1", 4, 1),
        "b2a361aa792de095db163e723aa17d281000b658d944ba0a4fef24f54ce1665f",
        {
            "quotient.json":
                "0cd49cf50c6828ffd554c4af75a9eeca3980fb1e238b8be5689db1f079cf6de0",
            "report-ball2-isometry.json":
                "ae7cd00bd502a7e531c3c6c2ba9f58bb5211ad0f54b2dafc5645be9197a99556",
            "report-lipschitz-lifting.json":
                "6e31158c1d51bcfa48aad0a8b3eaa7d9ec9b98eb5f448156a800f9b568c89d89",
            "report-local-covering.json":
                "d7d2991e50b839b2ceb4834ed762650f35c06858d616a00631aafbfd9ff4397b",
            "report-simplicial.json":
                "83a8dec24c4ad17a69af29d96c1ec4075a58f4a3090f6003ea46fd0e1833c72e",
            "window.json":
                "bd6ca26eb0666ce2248ebac7135fde8f3f235e0aa61b92165cde5e76e53d0f98",
        },
    ),
    "h30-m2,1,1,1-k8-c2": (
        farey_args(30, "2,1,1,1", 8, 2),
        "0d87ac3ebfa10f18916af033585551a62f86b0452d7a8ae5d86db2800a5d016a",
        {
            "quotient.json":
                "4e19870e26702ed21119c2311323396e3ddc48488c46acf9ad7ac6b086ba17a5",
            "report-ball2-isometry.json":
                "56f5fea0b1c3618dc0ca1c58c88385fc986dfe352c1d3371bbfc9d47e6fd5bed",
            "report-lipschitz-lifting.json":
                "f58a75c0e9a11237a2b9b0f2ca498af22309043dada37b18a5efdc1b9d60bcae",
            "report-local-covering.json":
                "60c40d5638ea663ce84be96bc2043dfc72bd7a1cb539b073836ab45cb639376e",
            "report-simplicial.json":
                "8950028464d283ce5e589b510082f7c7a5cb39bc00bf899b82e13eb2d2218fbd",
            "window.json":
                "bd6ca26eb0666ce2248ebac7135fde8f3f235e0aa61b92165cde5e76e53d0f98",
        },
    ),
    "h30-m2,1,1,1-k6-c2": (
        farey_args(30, "2,1,1,1", 6, 2),
        "6847e0cd014f3fddb124c170589224ad27784a7ddb4dff71b2a34725ee4a03bd",
        {
            "quotient.json":
                "5b5ab1585bbf75f9e7e287611c8863d316ff8767ace09f7c541a7587802b6c36",
            "report-ball2-isometry.json":
                "f9b8ee4d38771746e3447141924bc93f069d29b3b729bd113785159e46694cab",
            "report-lipschitz-lifting.json":
                "f760746aae883d8cead231ab55415b5ddb911ee04eefbe544971027bdc9a0475",
            "report-local-covering.json":
                "cfdbb4f992b5540119a1b63755bf25a6cee994ab27d62aff1e7444f6af4fc028",
            "report-simplicial.json":
                "a42e61fabde3f532d379d2d0bf4d4551f64b01439bfbc41c0e6e71357ad15826",
            "window.json":
                "bd6ca26eb0666ce2248ebac7135fde8f3f235e0aa61b92165cde5e76e53d0f98",
        },
    ),
    "h30-m1,1,1,2-k8-c1": (
        farey_args(30, "1,1,1,2", 8, 1),
        "0d87ac3ebfa10f18916af033585551a62f86b0452d7a8ae5d86db2800a5d016a",
        {
            "quotient.json":
                "d1d513caf6f1e456134fddb31b902d20b436c67a023df4eef8ae323f8435e340",
            "report-ball2-isometry.json":
                "56f5fea0b1c3618dc0ca1c58c88385fc986dfe352c1d3371bbfc9d47e6fd5bed",
            "report-lipschitz-lifting.json":
                "f58a75c0e9a11237a2b9b0f2ca498af22309043dada37b18a5efdc1b9d60bcae",
            "report-local-covering.json":
                "60c40d5638ea663ce84be96bc2043dfc72bd7a1cb539b073836ab45cb639376e",
            "report-simplicial.json":
                "8950028464d283ce5e589b510082f7c7a5cb39bc00bf899b82e13eb2d2218fbd",
            "window.json":
                "bd6ca26eb0666ce2248ebac7135fde8f3f235e0aa61b92165cde5e76e53d0f98",
        },
    ),
    "h40-m2,1,1,1-k8-c1": (
        farey_args(40, "2,1,1,1", 8, 1),
        "2ab16e1f9c6cbb920aed5a276ae3500e9dfee46c282523a7fdd3be973d155acd",
        {
            "quotient.json":
                "d24eb5f8867dba06f23db65f4eec0e530f56226580d87bb35752efebb65b3420",
            "report-ball2-isometry.json":
                "2d275ecc8833d77d960f1b196376dc88771d6610a871d684730aef2a284fdb91",
            "report-lipschitz-lifting.json":
                "f27293b68c4e225ddd58347eeb13686a8a0fa08cec4ad0f6867530207f7bd4da",
            "report-local-covering.json":
                "9022aae9a2eea31ab8efc0ddd28fe6c32b23c4f95f53a4c617bf220d411ff68c",
            "report-simplicial.json":
                "f61db37b545da94cc6d55041f9b00d151cc2238a43f52ab28929afff8ce5d270",
            "window.json":
                "11463477324b073fafa11401f509b3b0c1c9d4b655a253b2b47bccefee605a3b",
        },
    ),
    "h55-m2,1,1,1-k8-c1": (
        farey_args(55, "2,1,1,1", 8, 1),
        "3195541db328664a19d1a18dd7ce4ea99d96c3ab01c549cb3962fa6d7a774cee",
        {
            "quotient.json":
                "63b0545949a17877b5198f4740478f5772b8e42c36d74f95a542ec219d564cc1",
            "report-ball2-isometry.json":
                "4cc13e148703dae507ed1d0d90a094082c0f0f7b8dbb04637ea7e8ee83ab71a6",
            "report-lipschitz-lifting.json":
                "6aee381851b3d8a6fe8402313e2abb80528a539062740c9ec7b6ca0b20332d1c",
            "report-local-covering.json":
                "fbfb9dc86bbb4f6323530e810a7cd133727c5e970666dce77fcb9af0a39a5226",
            "report-simplicial.json":
                "d9f3e7ddce9bb630b62fd0b7b657f5d2724ee333e6d50f2092b1f81a5ba2b725",
            "window.json":
                "89c3f8ea4db642e5197fcfbe47d8ea5845568c38dfdc420fa003751ed20c64ff",
        },
    ),
    "b2-saaaa": (
        s5_args(2, "aaaa"),
        "3740647d4b95a4a02190fec9a4a03c70fdbf2e4ede5c4a0053926c294da3ab20",
        {
            "quotient.json":
                "b8b8e7881802617cb86998c4347653cd68d6b1ddb7588b61e1d090128890ad97",
            "report-ball2-isometry.json":
                "1fcc1be19e9ac5060fa2bc796f4b69f4de4b6add0e3cbbf4124ac36399360004",
            "report-lipschitz-lifting.json":
                "723a0e2f70d9cdf559493de7bfa483e4eaa743f2b8b5aaf8976e4414f1d60bcf",
            "report-local-covering.json":
                "322a5edacc7b9d1970fba1c708d2101985d843441faacf66691d92c6a0a0856c",
            "report-pentagon-transfer.json":
                "28ff98a1c2883318fbde73038b37a943893aeae229f0c8e34e37ac1872622f03",
            "report-relations.json":
                "45393a0ce07afa0a3558ca066608085595a59777210ad2aa5dfe7119c67587b4",
            "report-simplicial.json":
                "4562ebf00a7a5f4602ff87e6c897893c85d07aaec87fa94a753631cd715e96fe",
            "report-support-sets.json":
                "64879b402b92aa93f78627b52f53a94345e7f48b04291ffcd0e8f4320f41d41e",
            "window.json":
                "fd153c507c58aa4ae22a945fa7e36583938731362dbb25de4689e960eefa7d63",
        },
    ),
    "b2-sabab": (
        s5_args(2, "abab"),
        "b780fb13aa3d1a75d638e03b3ef662b58f0d06feb43c891d708878419137f068",
        {
            "quotient.json":
                "4b7367dbe260b63df79519ca849ce193863c600a54995215fb4f2af9da86cf88",
            "report-ball2-isometry.json":
                "3aab11ea6d7762e75bdaa929406b7856973bd8a4e3e559150af9ff3224389a5f",
            "report-lipschitz-lifting.json":
                "4403d28b3124832382225d9e876e767204b548655858cb56b715ea4e15d88362",
            "report-local-covering.json":
                "06022a858d72d476a5e059b701323585974129882ef15da4f32183fd13f33a00",
            "report-pentagon-transfer.json":
                "b90008661cba43d734e1fcab877c44c28aaa2dfac6f6426cc761b19cdc352c48",
            "report-relations.json":
                "45393a0ce07afa0a3558ca066608085595a59777210ad2aa5dfe7119c67587b4",
            "report-simplicial.json":
                "dc5ceb45fc1869b64a53c11b8d0410ab858bee759a4bbb23fbf64837e453bd74",
            "report-support-sets.json":
                "8520ae6c7425e6ff5f101838fc47589707514e3d6a6d2de31c6eb873ad25f68c",
            "window.json":
                "fd153c507c58aa4ae22a945fa7e36583938731362dbb25de4689e960eefa7d63",
        },
    ),
    "b2-sac": (
        s5_args(2, "ac"),
        "84b18aff76f11ac46278e30b77e6b6d47fbd96f839f6ac575f0ee55ce15b743b",
        {
            "quotient.json":
                "b4fa8681f063b35bbd2dc08367c75185a552ee0feaf87c8f9cdf1b6c60ddf3cb",
            "report-ball2-isometry.json":
                "9935c928698450e04ca62f5eee719157808db8d9a920641ab9cfa06274b25504",
            "report-lipschitz-lifting.json":
                "de76ff9e56d0585d16a7661a46cfa2b4d5ca0a51dcc27d62ea1753554235c880",
            "report-local-covering.json":
                "65f873d64be57cf278b40aa9e33028b66786b00cb606fa17c068aeeb54d127bb",
            "report-pentagon-transfer.json":
                "d87e0a085abd672fe684f13e76bcac39d71a93737d7967bc01b1b93ec4aa3b71",
            "report-relations.json":
                "45393a0ce07afa0a3558ca066608085595a59777210ad2aa5dfe7119c67587b4",
            "report-simplicial.json":
                "a9f1850a3cff7e2b24f9daf0f94f010311f06a4e71608e3131ddbc84411dba3a",
            "report-support-sets.json":
                "1f6c304f5d558eb4f4357dcc460b66095080a82866c4f76abb4251628f8fb6cb",
            "window.json":
                "fd153c507c58aa4ae22a945fa7e36583938731362dbb25de4689e960eefa7d63",
        },
    ),
    "b3-snone": (
        s5_args(3, ""),
        "ac8447ccfe8a1830552977a8e2dee5f03c637bffb04d057dbf7d88f27ff2ebbc",
        {
            "quotient.json":
                "042b5c492ebb39b739c7f472cd13a878f54a6ce6c8cf3bed994dc9b78ad7e177",
            "report-ball2-isometry.json":
                "38b376bd8c070838800354dc32fef71a555a1688944c2441ade9ec4be5213318",
            "report-lipschitz-lifting.json":
                "81bb70fbb504d2f4a27faae5efe42be497d513b4e589cc9bfaac86ea291f1c6d",
            "report-local-covering.json":
                "d08c3bc8720b627474dfa6718ef93fc362bf805ddd61308ea428fae127c37e3b",
            "report-pentagon-transfer.json":
                "27e2014f9dd3871546f338f8e4aea04456b4084479839cee6cf9d062ebcd50ba",
            "report-relations.json":
                "45393a0ce07afa0a3558ca066608085595a59777210ad2aa5dfe7119c67587b4",
            "report-simplicial.json":
                "cf6fcca6a4b429b4dd1c778db89a372471df736810d70896da0ed8f22c11990d",
            "report-support-sets.json":
                "339d47df0659b9c3ffcd6de7967af3bd3f6ee4efb62a45453b9ed5c1e7e6d41a",
            "window.json":
                "492e71a1c65f3a97dc753ec8568afb08f54cc09899d02125cd458fca485408b1",
        },
    ),
    "b3-saa": (
        s5_args(3, "aa"),
        "ef3c74a4975efca9e8bcdc606023be467df598936263b668bb98cd99110ab669",
        {
            "quotient.json":
                "1263711fb1c3d695f4111af0aa01f0bb29d3ce6fa8eadf66fedf1db6eae3993a",
            "report-ball2-isometry.json":
                "54aeb41de63aa8ceb96ad03f5266fc9209cba13e0d8e44a959baa7ef46c5ae53",
            "report-lipschitz-lifting.json":
                "f30c3a5cbc385ce97e6ea8f35c33d01644c0db3cc33044bd09f62e0131e7a7f5",
            "report-local-covering.json":
                "0e8066838af1ee8feb6ba5b13f32755fdc71c257ef7c68fbc113a2e0b01176d7",
            "report-pentagon-transfer.json":
                "e42819a965f97995730a911809bbcf5029a3e31e9430cd6bf955f04f80f3f930",
            "report-relations.json":
                "45393a0ce07afa0a3558ca066608085595a59777210ad2aa5dfe7119c67587b4",
            "report-simplicial.json":
                "27d978e9c953f5e389045b820f74faa92532f27d3ae606230b760c3ee34f8f64",
            "report-support-sets.json":
                "672204f55c6546bd192a4d9c3499cad88250c7d7440fc08e565ef343ac5b15a2",
            "window.json":
                "492e71a1c65f3a97dc753ec8568afb08f54cc09899d02125cd458fca485408b1",
        },
    ),
    "b3-sr": (
        s5_args(3, "r"),
        "b082b3cbfedd62e7b1ee9261adb5c6a3aa2dd2608b9256927b877ebc8aaeb63b",
        {
            "quotient.json":
                "318903c9b4d59987fc5374ed8ba998685fec04908a291dcd343a72d84047f5e3",
            "report-ball2-isometry.json":
                "385490eaf75a099f61218ef1a9e766f9238cc19cfc6aefd73fdd882dc27a9a35",
            "report-lipschitz-lifting.json":
                "41c3178f3c6c670025031bb483d423d23197d0005ffe781068136bbf440a328f",
            "report-local-covering.json":
                "0ec1a68f109914047aa7333d5a98db76e0e14b7baa1ef515f872c69e9f01aca4",
            "report-pentagon-transfer.json":
                "ba9e1ae8313868acb7209d468dc01d0b46139f002735fc8d50d1fc186328015f",
            "report-relations.json":
                "45393a0ce07afa0a3558ca066608085595a59777210ad2aa5dfe7119c67587b4",
            "report-simplicial.json":
                "8812b40ccd230272ca0ee545ddb3f245438771ee24f43907abbc358f092a3632",
            "report-support-sets.json":
                "ff10006a4748341aa0919bc4b1fa209186bba5b256a9debb84dcada1c36b3290",
            "window.json":
                "492e71a1c65f3a97dc753ec8568afb08f54cc09899d02125cd458fca485408b1",
        },
    ),
    "b3-sbb,dd": (
        s5_args(3, "bb,dd"),
        "e998aeaf511fc9a4eb7e6f277b1d4296030306601a2f2130d17986a5abaa6ca8",
        {
            "quotient.json":
                "8bd6492757b5ca5c3f26374fcbb464433b28c40b86a0f6e8263838d2f2067560",
            "report-ball2-isometry.json":
                "049c73f6561233714ca4efd05863a28c83274a0f356fb0fcd8a401432bb84bed",
            "report-lipschitz-lifting.json":
                "0c88db14ab5eaa1957604a4837c44ba3ec3a3297efac81e2be8d14718506ff47",
            "report-local-covering.json":
                "acfaf1058cc7ce60d0d7632541d7d3918777ecb5122f34df84340763319df671",
            "report-pentagon-transfer.json":
                "bf0d3cf6cb0e9d61d41cca3dd047fea7283f25cebf6ab764341eb4fcea434a3b",
            "report-relations.json":
                "45393a0ce07afa0a3558ca066608085595a59777210ad2aa5dfe7119c67587b4",
            "report-simplicial.json":
                "fc55c2ee06276a37c0c5fe4f17ddfcade6878ededa315f62181c493f6c52b96c",
            "report-support-sets.json":
                "716c5dadcac626c1425942f9ff96db9246ce2f1388301720111276115390a582",
            "window.json":
                "492e71a1c65f3a97dc753ec8568afb08f54cc09899d02125cd458fca485408b1",
        },
    ),
    "b3-sabc": (
        s5_args(3, "abc"),
        "1b96afee43ae07b03d7a81b4c8dec6ec65818477dd4fae04c5b3f9eef35b20e0",
        {
            "quotient.json":
                "a80c34329dbc111d711ce4751fd9961bf84ea4805d4f6f02796e5448e2fe9ef9",
            "report-ball2-isometry.json":
                "8e17e94f59ed0b161eafd1271e53a572e45ee65ff7e4b940f0518609bff3fe3d",
            "report-lipschitz-lifting.json":
                "6c1838613b4110d15c0a5001d252d2b0c356fbd977e3ae3e05b0b16876da2445",
            "report-local-covering.json":
                "cfa4ae3dfb41f376dccd54bbae71d31101cc8428a7f103df290f99a0e6625eef",
            "report-pentagon-transfer.json":
                "90e8caedb9e8451afe81ffaa77067fac7244fe56cf0b40938c87d0e5a09a518d",
            "report-relations.json":
                "45393a0ce07afa0a3558ca066608085595a59777210ad2aa5dfe7119c67587b4",
            "report-simplicial.json":
                "726e68e7039a1194ecaa202cc295f542ef3d3aba1e46a1b2a1582c5aeaba73a5",
            "report-support-sets.json":
                "d54f3d6f2ae15126290ae425e8a3eb7b33cce4fcf9832b53d251094b0b03590f",
            "window.json":
                "492e71a1c65f3a97dc753ec8568afb08f54cc09899d02125cd458fca485408b1",
        },
    ),
    "b3-scdcd": (
        s5_args(3, "cdcd"),
        "2dbcb91d17c0e87a7631153d3efdd6a41fb82023a40416c064281992a96d327a",
        {
            "quotient.json":
                "10d8a7299f2328f84f9226495dc40c7fa3fb96cb4aadda0e755c454f89c3d9b9",
            "report-ball2-isometry.json":
                "d7a3962a5cacf466ab069ebfc8f14ef98a6da3fa1512158558ef9d4ab5981cb9",
            "report-lipschitz-lifting.json":
                "68d07f26f157993c2277906fb9a3633cc601888cc2e5456f81a120fed55386f8",
            "report-local-covering.json":
                "0fd8cd6590aae0939561033fc3a1d616c86e8c00f94a4c3e434bab3126d737c5",
            "report-pentagon-transfer.json":
                "39e43ab1e42467d12d95bcb117a9721858471a079ef365885ce5ee4581f73b99",
            "report-relations.json":
                "45393a0ce07afa0a3558ca066608085595a59777210ad2aa5dfe7119c67587b4",
            "report-simplicial.json":
                "180d3165a7a6cb6e5395add5876ccad6b95b6e7169d59787bbdf3d54a9b9978e",
            "report-support-sets.json":
                "5849d45dcf0a50c90292a1de97b6c62a7af590b1d3d01cb165a21f0efbcb51ca",
            "window.json":
                "492e71a1c65f3a97dc753ec8568afb08f54cc09899d02125cd458fca485408b1",
        },
    ),
    "b3-saaaa": (
        s5_args(3, "aaaa"),
        "b55b51ea90075a3a49c1539e76c77a1fa2c16e42ed419d4fe0197e16b006613a",
        {
            "quotient.json":
                "041eea92c41f6786305e50effdf954361a5577645d1be12fa4989a4439a648d2",
            "report-ball2-isometry.json":
                "57287c3df15e32162852cd94f3baee177a1f7ee8491c18c47133c3c6e2163651",
            "report-lipschitz-lifting.json":
                "82c2786a752b7cd4cc051397e8d88e9733f1ecd5c0686ee364fafdbf9e90ef46",
            "report-local-covering.json":
                "26e041f14ff177cf7ad0f8fce8cf3d91cfadf6d86a2798468af0757094a9a34a",
            "report-pentagon-transfer.json":
                "bac860212f3bc6bbf1ce3b097f12032a4eaeec166a3877e02e9c4272bd07b57a",
            "report-relations.json":
                "45393a0ce07afa0a3558ca066608085595a59777210ad2aa5dfe7119c67587b4",
            "report-simplicial.json":
                "63d0af8573fa35a602c22db7a882760a1e3bea3f0b709e8462d1201fdbd23a60",
            "report-support-sets.json":
                "131fb7d9cdf0d8c69b644d2f428eec0a2d53f60e98c0dcda76b4ced020e3bd37",
            "window.json":
                "492e71a1c65f3a97dc753ec8568afb08f54cc09899d02125cd458fca485408b1",
        },
    ),
    "b3-sabab": (
        s5_args(3, "abab"),
        "f2884c3e07af76b031582b76b44fc54a2c04d34c70f1c7e893c4d2a8902ffc73",
        {
            "quotient.json":
                "b96cac163c77a5ab4ce8dc41d25b69eecaad92bab6d9cd33842fde41d28f52ef",
            "report-ball2-isometry.json":
                "2ca6cb9cfda32eaf4ea795e4b4b28970a40c61e5227ae9576ff32443a7406400",
            "report-lipschitz-lifting.json":
                "76515d77fa9c47b892077ff372fec4c0f1666feec9f1f0a20bc3049be4f16569",
            "report-local-covering.json":
                "65f192fa2ed3861d220e10b13bd6fe7353e3f706a499af56f30dc093d597ad51",
            "report-pentagon-transfer.json":
                "e18e89674d3af6115701c5fdee3dafbb94f60a2dc273271ea97ddfb9f8e1142c",
            "report-relations.json":
                "45393a0ce07afa0a3558ca066608085595a59777210ad2aa5dfe7119c67587b4",
            "report-simplicial.json":
                "6c8adb5bb66ab7aae91c9a40dc7aea37373c4ea41e103ee72f303128562de033",
            "report-support-sets.json":
                "5849d45dcf0a50c90292a1de97b6c62a7af590b1d3d01cb165a21f0efbcb51ca",
            "window.json":
                "492e71a1c65f3a97dc753ec8568afb08f54cc09899d02125cd458fca485408b1",
        },
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_digests(args, stdout_digest, file_digests, out_dir):
    result = CliRunner().invoke(cli.main, [*args, "--out", str(out_dir)],
                                catch_exceptions=False)
    assert result.exit_code == 0
    assert sha256(result.stdout_bytes) == stdout_digest
    written = {p.name: sha256(p.read_bytes()) for p in sorted(out_dir.iterdir())}
    assert written == file_digests


@pytest.mark.parametrize("entry", sorted(MENU))
def test_verify_artifacts_byte_identical(entry, tmp_path):
    check_digests(*MENU[entry], tmp_path)


# S5 verify at bound 2 with the sample "aab", outside the benchmark's menu;
# digests recorded from the code that still decided out-of-window
# adjacency by flip-reduction search
B2_AAB = (
    s5_args(2, "aab"),
    "69b4038019a1c41cc85c64392c8d80fc3ae32a218665381166d20aad0b7c6bf8",
    {
        "quotient.json":
            "f0d59fb2c70fe8c1f5178423dd0b75421158f5531635fdea9b9df25650abb877",
        "report-ball2-isometry.json":
            "fb13e8aea2fdffa4ea61c2ff9cc4908d71219ac4a2141190cd300be59aeb352e",
        "report-lipschitz-lifting.json":
            "5143fb8fc20057b8e98c98405b9f24789939f916828bf7c809deb35f9163a949",
        "report-local-covering.json":
            "4c09366df3441ba1ae031259f27df5f379b3687d62846c4a1985f1c23a371716",
        "report-pentagon-transfer.json":
            "9c19fb3c4aea1a04fbc65d4b145b56efc908036f7aa2ab19b6966e01639ccc4b",
        "report-relations.json":
            "45393a0ce07afa0a3558ca066608085595a59777210ad2aa5dfe7119c67587b4",
        "report-simplicial.json":
            "5af716ca21ec03af9ecb7dc4407cf16d1d3ef1d81e8ed6727522dd167a02be35",
        "report-support-sets.json":
            "385676fb651a97c5c1883d0274fc6506da7c8d37cf0f292fd9184da1a345375d",
        "window.json":
            "fd153c507c58aa4ae22a945fa7e36583938731362dbb25de4689e960eefa7d63",
    },
)


@pytest.mark.parametrize("entry", ["b3-sabab", "b2-saab"])
def test_s5_verify_runs_no_intersection_search(entry, tmp_path, monkeypatch):
    """S5 verify reads every certificate off window edges and witness words.

    ``intersection_number`` raises here in every module that imports it, so
    a change that routes the verify path through curve-level intersections
    fails.
    """
    from curvelab import arc2, curves, s5windows

    def forbidden(*args):
        raise AssertionError("S5 verify computed an intersection number")

    monkeypatch.delenv("CURVELAB_CACHE", raising=False)
    for module in (curves, s5windows, arc2):
        monkeypatch.setattr(module, "intersection_number", forbidden)
    check_digests(*(B2_AAB if entry == "b2-saab" else MENU[entry]), tmp_path)
