package repro.mfp

import repro.SparkSpec
import repro.core._
import repro.roadnet.{RoadNetGen, TrafficModel}

/** Section 4: MinHash, LSH banding, MFP-tree, and the compressed EP-Index
  * facade — which must behave exactly like the flat EP-Index.
  */
class MfpSpec extends SparkSpec {

  // ---------------------------------------------------------------- MinHash
  test("identical sets get identical signatures") {
    val s = Seq(1L, 5L, 9L)
    assert(MinHash.signature(s, 8).toSeq == MinHash.signature(Seq(9L, 1L, 5L), 8).toSeq)
  }

  test("estimate is 1 for equal sets, low for disjoint sets") {
    val a = MinHash.signature((1L to 30L), 32)
    val b = MinHash.signature((1L to 30L), 32)
    val c = MinHash.signature((100L to 130L), 32)
    assert(MinHash.estimate(a, b) == 1.0)
    assert(MinHash.estimate(a, c) < 0.4)
  }

  test("estimate tracks Jaccard similarity roughly") {
    val base = (1L to 40L).toSeq
    val overlapping = (21L to 60L).toSeq // Jaccard = 20/60 = 1/3
    val est = MinHash.estimate(MinHash.signature(base, 128), MinHash.signature(overlapping, 128))
    assert(est > 0.15 && est < 0.55, s"est=$est")
  }

  test("empty sets are rejected") {
    assertThrows[IllegalArgumentException](MinHash.signature(Seq.empty[Long], 4))
  }

  // -------------------------------------------------------------------- LSH
  test("groups cover all items exactly once") {
    val sigs = (0 until 20).map(i => i -> MinHash.signature(Seq(i.toLong, (i / 3).toLong + 100), 8))
    val groups = Lsh.group(sigs, bands = 4)
    val flat = groups.flatten
    assert(flat.sorted == (0 until 20).toVector)
  }

  test("identical path sets land in one group") {
    val shared = Seq(1L, 2L, 3L)
    val sigs = Seq(
      0 -> MinHash.signature(shared, 8),
      1 -> MinHash.signature(shared, 8),
      2 -> MinHash.signature(Seq(99L, 98L, 97L), 8))
    val groups = Lsh.group(sigs, bands = 2)
    val groupOf = groups.zipWithIndex.flatMap { case (g, i) => g.map(_ -> i) }.toMap
    assert(groupOf(0) == groupOf(1))
  }

  test("band count must divide signature length") {
    val sigs = Seq(0 -> MinHash.signature(Seq(1L), 6))
    assertThrows[IllegalArgumentException](Lsh.group(sigs, bands = 4))
  }

  // --------------------------------------------------------------- MFP-tree
  test("figure-12 style insertion shares prefixes") {
    val tree = new MfpTree
    tree.insert(1, Seq(33L, 44L, 55L))          // e_5,9  : P33 P44 P55
    tree.insert(2, Seq(33L, 44L, 66L, 77L))     // e_9,10 : shares (33,44)
    assert(tree.pathSetOf(1) == Set(33L, 44L, 55L))
    assert(tree.pathSetOf(2) == Set(33L, 44L, 66L, 77L))
    // nodes: 33,44,55,66,77 (+2 tails) → prefix 33,44 stored once
    assert(tree.nodeCount == 7)
  }

  test("prefix may start below the root (the paper's FP-tree modification)") {
    val tree = new MfpTree
    tree.insert(1, Seq(10L, 20L, 30L))
    // (20,30) is a mid-tree chain: new sequence attaches under it
    tree.insert(2, Seq(20L, 30L, 40L))
    assert(tree.pathSetOf(2) == Set(20L, 30L, 40L))
    assert(tree.nodeCount == 6) // 10,20,30,40 + 2 tails
  }

  test("walk-up recovery never leaks ancestors outside the set") {
    val tree = new MfpTree
    tree.insert(1, Seq(1L, 2L, 3L, 4L))
    tree.insert(2, Seq(3L, 4L, 5L)) // attaches under the mid-chain (3,4)
    assert(tree.pathSetOf(2) == Set(3L, 4L, 5L)) // must NOT include 1,2
  }

  test("duplicate edge insertion is rejected") {
    val tree = new MfpTree
    tree.insert(1, Seq(1L))
    assertThrows[IllegalArgumentException](tree.insert(1, Seq(2L)))
  }

  test("MfpTree.build recovers every edge's path set") {
    val group = Seq(
      1 -> Seq(10L, 11L, 12L),
      2 -> Seq(10L, 11L),
      3 -> Seq(10L, 11L, 12L, 13L),
      4 -> Seq(20L, 21L))
    val occ = group.flatMap(_._2).groupBy(identity).map { case (p, xs) => p -> xs.size }
    val tree = MfpTree.build(group, occ)
    group.foreach { case (e, pids) => assert(tree.pathSetOf(e) == pids.toSet, s"edge $e") }
  }

  // ------------------------------------------- CompressedEpIndex ≡ EpIndex
  private def subgraphIndex(seed: Int): SubgraphDtlp = {
    val g = RoadNetGen.generate(200, seed = seed)
    val part = Partitioner.partition(g, 30)
    new SubgraphDtlp(part.subgraphs.maxBy(_.boundaryIds.length), xi = 3)
  }

  test("compressed index recovers exactly the flat path sets") {
    val idx = subgraphIndex(1)
    val compressed = new CompressedEpIndex(idx.epPaths)
    (0 until idx.sg.local.numEdges).foreach { le =>
      val flat = idx.epIndex.pathsThrough(le).map(_._1.pathId).toSet
      assert(compressed.pathSetOf(le) == flat, s"edge $le")
    }
  }

  test("compressed applyDelta matches flat applyDelta over many rounds") {
    val flatIdx = subgraphIndex(2)
    val mirror = subgraphIndex(2) // identical twin for the compressed side
    val compressed = new CompressedEpIndex(mirror.epPaths)
    val g = flatIdx.sg.local
    def distances(idx: SubgraphDtlp): Seq[Double] =
      idx.pairs.toSeq.sortBy(_._1).flatMap(_._2.paths.map(_.distance))
    val rnd = new scala.util.Random(5)
    for (round <- 1 to 30) {
      val le = rnd.nextInt(g.numEdges)
      val delta = rnd.nextDouble() * 4 - 2
      flatIdx.epIndex.applyDelta(le, delta)
      compressed.applyDelta(le, delta)
      val (flatD, compD) = (distances(flatIdx), distances(mirror))
      assert(flatD.size == compD.size)
      flatD.zip(compD).foreach { case (a, b) => assert(a == b, s"round=$round") }
    }
  }

  test("compression does not inflate storage") {
    val idx = subgraphIndex(3)
    val compressed = new CompressedEpIndex(idx.epPaths)
    assert(compressed.flatElements == idx.epIndex.storageElements)
    assert(compressed.storageNodes <= compressed.flatElements)
  }

  test("compression achieves real savings on path-heavy subgraphs") {
    val idx = subgraphIndex(4)
    val compressed = new CompressedEpIndex(idx.epPaths)
    val ratio = compressed.storageNodes.toDouble / math.max(1L, compressed.flatElements)
    assert(ratio < 0.95, s"no compression achieved: $ratio")
  }

  test("end-to-end: compressed maintenance keeps distances exact under traffic") {
    val g = RoadNetGen.generate(200, seed = 6)
    val part = Partitioner.partition(g, 30)
    val idx = new SubgraphDtlp(part.subgraphs.maxBy(_.boundaryIds.length), xi = 2)
    val compressed = new CompressedEpIndex(idx.epPaths)
    for (round <- 1 to 3) {
      val batch = TrafficModel.snapshot(g, 0.5, 0.5, round)
      g.applyUpdates(batch)
      batch.foreach { u =>
        idx.sg.localEdgeOfGlobal.get(u.edgeId).foreach { le =>
          compressed.applyDelta(le, u.delta)
          idx.sg.local.weights(le) = u.newWeight
        }
      }
    }
    idx.epPaths.foreach { bp =>
      val expect = bp.localEdges.map(idx.sg.local.weights).sum
      assert(math.abs(bp.distance - expect) < 1e-9)
    }
  }
}
