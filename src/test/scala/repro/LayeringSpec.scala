package repro

import java.nio.file.{Files, Path, Paths}
import scala.jdk.CollectionConverters._
import org.scalatest.funsuite.AnyFunSuite

/** `src/main` is the detector library alone. The detectors, the
  * divergence comparator and the result analysis run on the driver-side
  * index only: Spark stays in `repro.data` (and in the test-scope
  * experiment runners, `repro.exp`). The searches count through
  * `PatternCounter.countWave` only; the `Map` API `countBatch` stays
  * inside `PatternCounter.scala`.
  */
class LayeringSpec extends AnyFunSuite {

  private val sparkFree = Seq("core", "divergence", "shapley")

  /** `src/main/scala/repro`, read from the project directory the tests run in. */
  private val mainRoot = Paths.get(sys.props("user.dir"), "src", "main", "scala", "repro")

  /** The `.scala` files under `src/main/scala/repro/<pkg>`. */
  private def sources(pkg: String): Seq[Path] = {
    val dir = mainRoot.resolve(pkg)
    assert(Files.isDirectory(dir), s"$dir is not a directory")
    val walk = Files.walk(dir)
    try walk.iterator.asScala.filter(_.toString.endsWith(".scala")).toVector
    finally walk.close()
  }

  test("core, divergence and shapley never mention org.apache.spark") {
    for (pkg <- sparkFree) {
      val files = sources(pkg)
      assert(files.nonEmpty, s"no sources found for repro.$pkg")
      val offenders = files.filter(f => new String(Files.readAllBytes(f), "UTF-8").contains("org.apache.spark"))
      assert(offenders.isEmpty, s"repro.$pkg must not use Spark: ${offenders.mkString(", ")}")
    }
  }

  test("src/main holds only the library packages core, data, divergence and shapley") {
    val list = Files.list(mainRoot)
    val pkgs = try list.iterator.asScala.map(_.getFileName.toString).toSet finally list.close()
    assert(pkgs == Set("core", "data", "divergence", "shapley"))
  }

  test("in src/main only PatternCounter.scala names countBatch: the searches count through countWave") {
    val naming = (sparkFree :+ "data").flatMap(sources).filter { f =>
      new String(Files.readAllBytes(f), "UTF-8").contains("countBatch")
    }
    assert(naming.map(_.getFileName.toString) == Seq("PatternCounter.scala"), naming.mkString(", "))
  }
}
